//! Reader for `wire_frames.txt` (one `kind.name hex` line per sample),
//! shared by `wire_golden.rs` and `hostile_bytes.rs`.

const GOLDEN: &str = include_str!("wire_frames.txt");

/// The fixture's payloads of one kind (`request`, `response`, `wal`), in
/// file order, as `(name, bytes)`.
pub fn golden(kind: &str) -> Vec<(&'static str, Vec<u8>)> {
    let unhex = |text: &str| -> Vec<u8> {
        (0..text.len() / 2)
            .map(|i| u8::from_str_radix(&text[2 * i..2 * i + 2], 16).expect("hex digits"))
            .collect()
    };
    GOLDEN
        .lines()
        .filter_map(|line| {
            let (name, bytes) = line.split_once(' ')?;
            Some((name.strip_prefix(kind)?.strip_prefix('.')?, unhex(bytes)))
        })
        .collect()
}
