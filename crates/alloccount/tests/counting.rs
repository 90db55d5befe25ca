//! What [`alloccount::counted`] means, once: the allocation pins of the
//! other crates rely on exactly these rules.
//!
//! One `#[test]` only: the counters are process-wide, so a second test
//! running beside it would be counted too.

use alloccount::counted;

#[global_allocator]
static GLOBAL: alloccount::Counting = alloccount::Counting;

#[test]
fn an_allocation_counts_its_block_a_growth_its_new_size_and_a_drop_nothing() {
    let mut v: Vec<u64> = Vec::new();
    assert_eq!(counted(|| v = Vec::with_capacity(8)), (1, 64));

    let grown = counted(|| v.reserve(16));
    assert!(v.capacity() >= 16);
    assert_eq!(grown, (1, v.capacity() * 8));

    assert_eq!(counted(|| drop(v)), (0, 0));
}
