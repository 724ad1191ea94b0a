//! Golden layout of [`Runtime::metrics_text`]: the ordered `# HELP` /
//! `# TYPE` lines and every sample line's name + label set, for a fixed
//! 2-shard, 2-query runtime. The fixture was captured at the commit
//! before the metrics export became table-driven (ISSUE 14), so it pins
//! the export order and wording independently of how the exporter is
//! written. Values are stripped: they depend on timing.

use pcea::automata::pcea::paper_p0;
use pcea::prelude::*;

/// `text` with the value dropped from every sample line.
fn layout(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let kept = if line.starts_with('#') {
            line
        } else {
            line.rsplit_once(' ').expect("sample line has a value").0
        };
        out.push_str(kept);
        out.push('\n');
    }
    out
}

#[test]
fn metrics_layout_matches_parent_fixture() {
    let (_, r, s, t) = Schema::sigma0();
    let mut rt = Runtime::new(2);
    rt.register(QuerySpec::new(
        "pinned",
        paper_p0(r, s, t),
        WindowPolicy::Count(100),
    ))
    .unwrap();
    rt.register(
        QuerySpec::new("keyed", paper_p0(r, s, t), WindowPolicy::Count(100))
            .with_partition(Partition::ByKey { pos: 0 }),
    )
    .unwrap();
    rt.push_batch(&sigma0_prefix(r, s, t));
    assert_eq!(
        layout(&rt.metrics_text()),
        include_str!("golden/metrics_layout.txt")
    );
}
