//! The counting allocator, in a process of its own: the counters are
//! process-wide, so this file holds one test and nothing else
//! allocates while it measures.

use cer_wire_bench::alloc::{self, AllocCount, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_no_op_rung_counts_zero_and_a_boxing_rung_counts_its_boxes() {
    let ((), nothing) = alloc::measure(|| ());
    assert_eq!(nothing, AllocCount::default());

    let (boxes, counted) = alloc::measure(|| (0..10u64).map(Box::new).collect::<Vec<_>>());
    // Ten boxes of eight bytes, plus the vector that holds them
    // (`collect` sizes it once from the exact iterator length).
    assert_eq!(counted.allocs, 11);
    assert_eq!(counted.bytes, 10 * 8 + 10 * 8);
    drop(boxes);

    // Off again: nothing is counted outside a measurement, and another
    // thread's allocations are counted inside one.
    let before = alloc::read();
    drop(vec![1u8; 100]);
    assert_eq!(alloc::read(), before);
    let ((), threaded) = alloc::measure(|| {
        std::thread::scope(|s| {
            s.spawn(|| drop(std::hint::black_box(vec![0u8; 64])));
        });
    });
    assert!(threaded.allocs >= 1 && threaded.bytes >= 64);
}
