//! Property test of the ordered fan-out helper: any item count, any worker
//! count (including more workers than items), same answer as a sequential
//! map.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

proptest! {
    /// `par` equals a sequential map in input order, builds at most one
    /// state per worker, and refuses zero workers.
    #[test]
    fn par_is_an_ordered_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..65),
        threads in 1usize..9,
    ) {
        let inits = AtomicUsize::new(0);
        let got = desim::par(
            &items,
            threads,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, &x| (i, x.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let want: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, x.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert!(inits.load(Ordering::Relaxed) <= threads.min(items.len()));
        let zero = catch_unwind(AssertUnwindSafe(|| desim::par(&items, 0, || (), |(), _, &x| x)));
        prop_assert!(zero.is_err(), "threads = 0 must panic");
    }
}
