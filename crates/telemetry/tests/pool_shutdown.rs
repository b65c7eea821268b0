//! Worker-lifecycle hygiene: the persistent pool parks idle workers,
//! exits them cleanly on [`pool::shutdown`], and respawns lazily
//! afterward — so embedding `facil-telemetry` never leaks threads.
//!
//! This lives in its own integration-test binary (one `#[test]`, its own
//! process) because `/proc/self/task` thread counts would race with other
//! tests exercising the pool concurrently in a shared binary.

use std::time::{Duration, Instant};

use facil_telemetry::pool;

/// Live thread count of this process; falls back to 1 where `/proc` is
/// unavailable (non-Linux), which skips the count-based assertions.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(1)
}

#[test]
fn workers_park_and_shut_down_without_leaking_threads() {
    let items: Vec<u64> = (0..256).collect();
    let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();

    let before = thread_count();

    // First parallel call spawns persistent workers.
    assert_eq!(pool::par_map_with(8, &items, |&x| x * 3), expect);
    let with_pool = thread_count();
    if before > 1 {
        assert!(
            with_pool > before,
            "expected persistent workers to outlive the call ({before} -> {with_pool})"
        );
    }

    // Idle workers park rather than exit: a second call reuses them
    // without growing the pool past the requested width.
    assert_eq!(pool::par_map_with(8, &items, |&x| x * 3), expect);
    assert!(thread_count() <= with_pool, "idle workers must be reused, not respawned");

    // Shutdown joins every worker...
    let joined = pool::shutdown();
    assert!(joined > 0, "shutdown must join the workers the calls spawned");
    if before > 1 {
        // `/proc/self/task` can still list a worker just after its join
        // returned, so let the count settle for up to a second.
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut after = thread_count();
        while after > before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            after = thread_count();
        }
        assert!(after <= before, "workers must exit on shutdown ({before} before, {after} after)");
    }
    // ...and repeating it is a no-op.
    assert_eq!(pool::shutdown(), 0);

    // The pool respawns lazily: parallel calls still work after shutdown.
    assert_eq!(pool::par_map_with(4, &items, |&x| x * 3), expect);
    assert!(pool::shutdown() > 0);
}
