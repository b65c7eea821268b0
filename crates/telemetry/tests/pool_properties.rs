//! Adversarial-schedule properties for the parallel pool.
//!
//! The executor's one observable contract is *schedule invisibility*: for
//! any worker count, any per-item cost skew (which makes participants
//! finish their claims at different times), and any nesting depth,
//! `par_map` returns exactly what the serial loop returns, in input order.
//! These tests generate uneven workloads to force chunk claims onto
//! different interleavings every run, then assert bit-identical output
//! across worker counts {1, 2, 3, 8, 64} and nesting depths {1, 2}.
//!
//! Worker counts are always passed explicitly (`par_map_with`) — the
//! process-global `set_parallelism` knob would race with other tests in
//! this binary.

use facil_check::{cases, Gen};
use facil_telemetry::pool;

/// Deterministic per-item result, independent of schedule.
fn h(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21) ^ 0x5DEE_CE66
}

/// Burn a schedule-skewing amount of CPU: `cost` is 0..4, chosen per item
/// by the generator, so some chunks finish long before others and idle
/// participants claim the rest of the batch.
fn spin(cost: u8) -> u64 {
    let mut acc = 1u64;
    for i in 0..(u64::from(cost) * 400) {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    if cost == 3 {
        std::thread::yield_now();
    }
    acc
}

const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 8, 64];

/// `len` items of random value and per-item cost `0..4`.
fn items(g: &mut Gen, len: std::ops::Range<usize>, max: u64) -> Vec<(u64, u8)> {
    g.vec(len, |g| (g.u64(0..max), g.u8(0..4)))
}

/// Depth 1: uneven per-item cost, every worker count, identical output.
#[test]
fn uneven_schedules_never_reorder_results() {
    cases(32, |g| {
        let items = items(g, 1..200, u64::MAX);
        let serial: Vec<u64> = items
            .iter()
            .map(|&(x, c)| {
                std::hint::black_box(spin(c));
                h(x)
            })
            .collect();
        for workers in WORKER_COUNTS {
            let out = pool::par_map_with(workers, &items, |&(x, c)| {
                std::hint::black_box(spin(c));
                h(x)
            });
            assert_eq!(&out, &serial, "diverged at {} workers", workers);
        }
    });
}

/// Depth 2: every outer item runs an inner `par_map_with`. Inner calls
/// issued from pool workers run inline; inner calls from the
/// submitting thread re-enter the executor — both must be invisible.
#[test]
fn nested_maps_are_schedule_invisible() {
    cases(32, |g| {
        let (items, inner_n) = (items(g, 1..40, u64::MAX), g.usize(1..24));
        let inner_workers = g.pick(&WORKER_COUNTS);
        let inner = |x: u64| -> u64 {
            let xs: Vec<u64> = (0..inner_n as u64).map(|i| x ^ i).collect();
            pool::par_map_with(inner_workers, &xs, |&y| h(y))
                .into_iter()
                .fold(0u64, u64::wrapping_add)
        };
        let serial: Vec<u64> = items
            .iter()
            .map(|&(x, c)| {
                std::hint::black_box(spin(c));
                inner(x)
            })
            .collect();
        for workers in WORKER_COUNTS {
            let out = pool::par_map_with(workers, &items, |&(x, c)| {
                std::hint::black_box(spin(c));
                inner(x)
            });
            assert_eq!(&out, &serial, "diverged at {} outer workers", workers);
        }
    });
}

/// The mutable twin under the same adversarial schedules: every item
/// mutated exactly once, results in input order.
#[test]
fn par_map_mut_mutates_each_item_once_under_any_schedule() {
    cases(32, |g| {
        let (items, workers) = (items(g, 1..200, 1 << 48), g.pick(&WORKER_COUNTS));
        let mut mine = items.clone();
        let out = pool::par_map_mut_with(workers, &mut mine, |slot| {
            std::hint::black_box(spin(slot.1));
            slot.0 = slot.0.wrapping_add(1);
            h(slot.0)
        });
        let expect: Vec<u64> = items.iter().map(|&(x, _)| h(x.wrapping_add(1))).collect();
        assert_eq!(out, expect);
        for (after, &(before, _)) in mine.iter().zip(&items) {
            assert_eq!(after.0, before.wrapping_add(1));
        }
    });
}

/// Two-item maps nested inside a map: depth-2 composition of whole,
/// independent jobs stays deterministic at every worker count.
#[test]
fn two_item_maps_compose_across_depths() {
    let items: Vec<u64> = (0..48).collect();
    let expect: Vec<u64> = items.iter().map(|&x| h(x).wrapping_add(h(x ^ 1))).collect();
    for workers in WORKER_COUNTS {
        let out = pool::par_map_with(workers, &items, |&x| {
            let pair = pool::par_map_with(workers, &[x, x ^ 1], |&y| h(y));
            pair[0].wrapping_add(pair[1])
        });
        assert_eq!(out, expect, "diverged at {workers} workers");
    }
}
