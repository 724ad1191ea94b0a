//! Which CPUs the program under test and the load generator run on.
//!
//! On the 2-vCPU boxes this benchmark is run on, leaving placement to
//! the scheduler makes whole runs land in one of two regimes (server
//! threads sharing a core with the load generator's reader, or not)
//! whose throughput differs by a factor of two. So the process splits
//! the CPUs it is allowed: the load generator (writer and reader
//! thread) gets the last one, the program under test all the others.
//! Threads inherit the affinity of the thread that spawns them, so the
//! caller pins itself to [`Role::Server`] around `Server::bind` /
//! `Runtime::new` and to [`Role::Load`] before it connects.
//!
//! With one CPU, or where the kernel refuses the call, nothing is
//! pinned and the result record says so.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The program under test: every allowed CPU but the last.
    Server,
    /// The load generator: the last allowed CPU.
    Load,
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    parse_cpu_list(list)
}

/// `"0-2,5"` → `[0, 1, 2, 5]`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The split of `allowed` between the two roles; `None` when there is
/// nothing to split.
pub fn split(allowed: &[usize], role: Role) -> Option<Vec<usize>> {
    let (&load, server) = allowed.split_last()?;
    if server.is_empty() {
        return None;
    }
    Some(match role {
        Role::Server => server.to_vec(),
        Role::Load => vec![load],
    })
}

/// The CPUs the process was allowed when it first asked: read once,
/// because pinning the main thread narrows what `/proc/self/status`
/// reports afterwards.
fn allowed_at_start() -> &'static [usize] {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(allowed_cpus)
}

/// Pin the calling thread (and every thread it spawns from now on) to
/// the CPUs of `role`. Returns whether the thread is now pinned. The
/// first call must come from the main thread, before it pins itself.
pub fn to(role: Role) -> bool {
    let Some(cpus) = split(allowed_at_start(), role) else {
        return false;
    };
    let mut mask = [0u64; 16];
    for cpu in cpus.into_iter().filter(|&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    set_affinity_of_this_thread(&mask)
}

/// For the result record: `"server [0] · load [1]"` or `"unpinned"`.
pub fn describe() -> String {
    let allowed = allowed_at_start();
    match (split(allowed, Role::Server), split(allowed, Role::Load)) {
        (Some(server), Some(load)) => format!("server {server:?} · load {load:?}"),
        _ => "unpinned".into(),
    }
}

/// `sched_setaffinity(0, 128, mask)`. The standard library has no
/// affinity call and the image has no `libc` crate, hence the raw
/// system call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity_of_this_thread(mask: &[u64; 16]) -> bool {
    let ret: isize;
    // SAFETY: system call 203 (sched_setaffinity) with pid 0 only reads
    // `size_of_val(mask)` bytes from `mask`, a live, initialised array
    // of exactly that size, and writes no user memory. The `syscall`
    // instruction clobbers rcx and r11, which are declared; it does not
    // touch the stack.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn set_affinity_of_this_thread(mask: &[u64; 16]) -> bool {
    let ret: isize;
    // SAFETY: as on x86-64; system call 122 (sched_setaffinity) reads
    // the mask and writes no user memory. `svc 0` returns in x0.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize,
            inlateout("x0") 0isize => ret,
            in("x1") std::mem::size_of_val(mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_affinity_of_this_thread(_mask: &[u64; 16]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-2,5"), vec![0, 1, 2, 5]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn the_last_cpu_is_the_load_generators() {
        assert_eq!(split(&[0, 1], Role::Server), Some(vec![0]));
        assert_eq!(split(&[0, 1], Role::Load), Some(vec![1]));
        assert_eq!(split(&[2, 4, 6, 7], Role::Server), Some(vec![2, 4, 6]));
        assert_eq!(split(&[0], Role::Server), None);
        assert_eq!(split(&[], Role::Load), None);
    }

    /// A spawned thread pins itself and sees the narrowed set; threads
    /// it spawns inherit it. (The test thread itself is left alone.)
    #[test]
    fn pinning_narrows_the_allowed_list_and_is_inherited() {
        let allowed = allowed_at_start();
        std::thread::spawn(move || {
            if to(Role::Load) {
                let want = vec![*allowed.last().unwrap()];
                let thread_status = || std::fs::read_to_string("/proc/thread-self/status").unwrap();
                let cpus_of = |status: String| {
                    parse_cpu_list(
                        status
                            .lines()
                            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                            .unwrap()
                            .trim(),
                    )
                };
                assert_eq!(cpus_of(thread_status()), want);
                let child = std::thread::spawn(move || cpus_of(thread_status()))
                    .join()
                    .unwrap();
                assert_eq!(child, want);
            }
        })
        .join()
        .unwrap();
    }
}
