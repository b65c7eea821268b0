//! Deterministic parallelism for the simulation crates, backed by a
//! persistent executor.
//!
//! The FACIL workspace simulates many *independent* units — the LPDDR5
//! channels of a `facil_dram::DramSystem`, devices in a serving fleet,
//! sweep points in the bench harness — whose results are merged in a fixed
//! index order. This module provides the shared parallel entry points:
//!
//! * [`par_map`] / [`par_map_mut`] — map a closure over a slice on the
//!   executor's long-lived workers, returning results **in input order**,
//!   so the output is bit-identical to a serial loop no matter how the
//!   items were split and claimed across workers; [`par_map_with`] and
//!   [`par_map_mut_with`] take the worker count explicitly. Two whole,
//!   independent jobs are a two-item map;
//! * [`parallelism`] / [`set_parallelism`] — the worker-count knob:
//!   process-wide override, then the `FACIL_THREADS` environment variable,
//!   then [`std::thread::available_parallelism`];
//! * [`shutdown`] — join the persistent workers (they respawn lazily on
//!   the next parallel call), for thread-hygiene-sensitive callers.
//!
//! Everything is `std`-only. Workers persist across calls (parked on a
//! condvar when idle) and claim *runs* of items from one shared atomic
//! cursor, each run a shrinking share of what is left; see the private
//! `executor` module docs for the scheduling and safety details.
//! Dispatching a batch is a pointer push plus wakeups, and per-item
//! overhead is amortized over whole runs.
//!
//! Calls degrade to a plain inline loop when one worker is requested or
//! the input has fewer than two items — so `FACIL_THREADS=1` runs exactly
//! the serial code path. **Nested** calls (a `par_map` reached from inside
//! another `par_map`'s closure, e.g. `DramSystem::run` fired lazily during
//! a parallel fleet tick) also run inline when the caller is already a
//! pool worker: the worker helps execute the nested batch itself, so
//! nesting can neither deadlock nor grow the thread count past the
//! configured parallelism. Either way the results are identical — the
//! schedule never leaks into the output.
//!
//! ```
//! use facil_telemetry::pool;
//!
//! let mut xs = [1u64, 2, 3, 4];
//! let doubled = pool::par_map_mut(&mut xs, |x| {
//!     *x *= 2;
//!     *x
//! });
//! assert_eq!(doubled, vec![2, 4, 6, 8]); // input order, any schedule
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::executor;

/// Process-wide worker-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable holding the default worker count.
const THREADS_VAR: &str = "FACIL_THREADS";

/// The worker count a `FACIL_THREADS` value selects (`None` when the
/// variable is unset, which means the available cores): a positive
/// integer, surrounding whitespace ignored. Any other value is an error
/// naming the variable, so a malformed count never silently runs on every
/// core.
fn workers_from_env_value(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{THREADS_VAR}={v:?} is no worker count: expected a positive integer")),
    }
}

/// The default worker count: the one `FACIL_THREADS` names, else the
/// machine's available parallelism. Read once and cached — use
/// [`set_parallelism`] for in-process changes.
fn default_parallelism() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let value = std::env::var_os(THREADS_VAR).map(|v| v.to_string_lossy().into_owned());
        workers_from_env_value(value.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
    })
}

/// Worker count used by [`par_map`]/[`par_map_mut`] when no explicit
/// count is given: the [`set_parallelism`] override if set, else the
/// `FACIL_THREADS` environment variable, else the available cores.
///
/// # Panics
///
/// Panics when no override is set and `FACIL_THREADS` is set to anything
/// but a positive integer.
pub fn parallelism() -> usize {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => default_parallelism(),
        n => n,
    }
}

/// Set the process-wide worker count (`1` forces serial execution).
/// Passing `0` clears the override, returning to the `FACIL_THREADS` /
/// available-cores default. Simulation results never depend on this knob —
/// only wall-clock time does.
pub fn set_parallelism(workers: usize) {
    OVERRIDE.store(workers, Ordering::Relaxed);
}

/// Join the executor's persistent worker threads and return how many were
/// joined. The pool respawns workers lazily on the next parallel call, so
/// this only matters to callers that audit thread hygiene (tests, forking
/// embedders) — simulation code never needs it.
pub fn shutdown() -> usize {
    executor::shutdown_workers()
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including bit-identical
/// results — but runs on [`parallelism`] workers. Falls back to the inline
/// serial loop when one worker is configured, there are fewer than two
/// items, or the caller is itself a pool worker (nested call).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(parallelism(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 || executor::on_worker_thread() {
        return items.iter().map(f).collect();
    }
    executor::map_indexed(workers, n, |i| f(&items[i]))
}

/// Map `f` over mutable `items` in parallel, returning results in input
/// order. The mutable-slice twin of [`par_map`]: each item is visited by
/// exactly one worker, so no synchronization beyond the index claiming is
/// needed and results match the serial loop bit for bit.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    par_map_mut_with(parallelism(), items, f)
}

/// [`par_map_mut`] with an explicit worker count.
pub fn par_map_mut_with<T, R, F>(workers: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 || executor::on_worker_thread() {
        return items.iter_mut().map(f).collect();
    }
    let base = executor::SendPtr(items.as_mut_ptr());
    executor::map_indexed(workers, n, move |i| {
        // SAFETY: `map_indexed` hands every index in 0..n to exactly one
        // chunk, so each element is borrowed mutably by exactly one thread,
        // and the borrow ends before the batch is declared quiescent.
        f(unsafe { &mut *base.get().add(i) })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order_with_uneven_work() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_with(7, &items, |&x| {
            // Skew the work so late items finish before early ones.
            if x % 3 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_visits_every_item_once() {
        let mut items = vec![0u32; 100];
        let idx = par_map_mut_with(4, &mut items, |slot| {
            *slot += 1;
            *slot
        });
        assert!(items.iter().all(|&v| v == 1));
        assert_eq!(idx, vec![1; 100]);
    }

    #[test]
    fn worker_counts_agree_bit_for_bit() {
        let items: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let serial = par_map_with(1, &items, |&x| x.rotate_left(13) ^ 0xABCD);
        for workers in [2, 3, 8, 64, 1000] {
            assert_eq!(par_map_with(workers, &items, |&x| x.rotate_left(13) ^ 0xABCD), serial);
        }
    }

    #[test]
    fn empty_and_singleton_inputs_stay_inline() {
        let empty: [u8; 0] = [];
        assert!(par_map_with(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map_with(8, &[7u8], |&x| x + 1), vec![8]);
    }

    /// The variable accepts exactly the positive integers, trimmed; unset
    /// means the available cores, and every other value is an error naming
    /// the variable. Tested on values, so no test touches the process
    /// environment.
    #[test]
    fn threads_variable_accepts_only_positive_counts() {
        let workers = workers_from_env_value;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers(None), Ok(cores));
        assert_eq!(workers(Some("8")), Ok(8));
        assert_eq!(workers(Some(" 3\n")), Ok(3));
        for rejected in ["eight", "0", "-2", "", " ", "1.5", "8 workers"] {
            let err = workers(Some(rejected)).unwrap_err();
            assert!(err.contains(&format!("FACIL_THREADS={rejected:?}")), "{err}");
        }
    }

    #[test]
    fn parallelism_override_roundtrips() {
        let before = parallelism();
        assert!(before >= 1);
        set_parallelism(3);
        assert_eq!(parallelism(), 3);
        set_parallelism(0); // back to the default
        assert_eq!(parallelism(), before);
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let outer: Vec<u64> = (0..16).collect();
        let expect: Vec<u64> =
            outer.iter().map(|&x| (0..8u64).map(|y| x * 100 + y).sum::<u64>()).collect();
        let got = par_map_with(4, &outer, |&x| {
            let inner: Vec<u64> = (0..8).collect();
            par_map_with(4, &inner, |&y| x * 100 + y).iter().sum::<u64>()
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_propagates_item_panics() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_with(4, &items, |&x| {
                assert!(x != 33, "boom");
                x
            })
        }));
        assert!(caught.is_err());
        // Pool still works afterward.
        assert_eq!(par_map_with(4, &items, |&x| x + 1)[0], 1);
    }
}
