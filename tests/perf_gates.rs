//! Wall-clock gates on the parallel paths, each measured on provably
//! equivalent work: every test first asserts that the fast path computes
//! exactly what the reference computes, then times both.
//!
//! * DRAM channels: `DramSystem::run_with_threads` on 1, 2, 4 and 8
//!   channels returns the serial `SimResult` on several workers, and at 8
//!   channels runs at least 2x faster;
//! * DRAM engines: on a low-utilization decode trace the next-event engine
//!   returns the cycle-stepped engine's `SimResult` at least 5x faster;
//! * executor dispatch: small `par_map` batches on the persistent executor
//!   return what a scoped-spawn pool returns, with less overhead per call;
//! * fleet: an 8-device `run_fleet` report is byte-identical on one worker
//!   and on several, and at least 1.5x faster on several;
//! * PIM replay: on the `tiny-fidelity` linears placed on the iPhone, the
//!   functional command interpreter (`replay_gemv`) returns the
//!   `pim_gemv` reference's bits in at most half its time.
//!
//! Equality is asserted on every host, as are the 5x engine gate and the
//! 2x replay gate (neither needs extra cores). The three parallel-speedup
//! gates are armed only on hosts with at least 4 cores: worker count alone
//! cannot buy wall-clock speedup.
//!
//! The tests are `#[ignore]`d: timings mean nothing in a debug build or
//! beside other tests. Run them in release, one at a time:
//!
//! ```text
//! cargo test --release --offline -q --test perf_gates -- --ignored --test-threads=1
//! ```

use std::sync::Mutex;
use std::time::Instant;

use facil::core::{DType, FacilSystem, MatrixConfig, PimArch};
use facil::dram::{DramAddress, DramSpec, DramSystem, EngineKind, Request, SchedConfig, SimResult};
use facil::fidelity::{replay_gemv, BankedMemory};
use facil::llm::ModelConfig;
use facil::pim::{pim_gemv, store_matrix, CommandSequence};
use facil::serve::{run_fleet, FleetConfig, Routing, ServeConfig};
use facil::sim::{InferenceSim, Strategy};
use facil::soc::{Platform, PlatformId};
use facil::telemetry::pool;
use facil::workloads::{ArrivalProcess, Dataset, XorShift64Star};

/// Cores on this host: the parallel-speedup gates arm at 4.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers for the parallel legs: at least 4, so multi-worker scheduling
/// runs even on small hosts (results are identical regardless).
fn workers() -> usize {
    pool::parallelism().max(4)
}

/// Seconds `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// LPDDR5-6400 with `channels` 16-bit channels of 2 GiB each.
fn lpddr5(channels: u64) -> DramSpec {
    DramSpec::lpddr5_6400(16 * channels, channels * (2 << 30))
}

/// `n` row-local requests over every channel of `spec`, one in four a
/// write, arriving four per cycle: both the backlogged and the idle-jump
/// scheduler paths run.
fn dense_stream(spec: &DramSpec, n: usize, seed: u64) -> Vec<Request> {
    let t = spec.topology;
    let mut rng = XorShift64Star::new(seed);
    (0..n)
        .map(|i| {
            let addr = DramAddress {
                channel: rng.next_u64() % t.channels,
                rank: rng.next_u64() % t.ranks,
                bank: rng.next_u64() % t.banks(),
                row: (rng.next_u64() % 64) * 7 % t.rows,
                column: rng.next_u64() % t.columns(),
            };
            let req = if rng.next_u64().is_multiple_of(4) {
                Request::write(addr)
            } else {
                Request::read(addr)
            };
            req.at(i as u64 / 4)
        })
        .collect()
}

/// Decode-phase trace: `tokens` bursts of `burst` reads, `gap` idle
/// cycles apart (about 2% bus utilization).
fn decode_stream(spec: &DramSpec, tokens: usize, burst: usize, gap: u64) -> Vec<Request> {
    let t = spec.topology;
    let mut rng = XorShift64Star::new(42);
    let mut out = Vec::with_capacity(tokens * burst);
    for token in 0..tokens as u64 {
        for _ in 0..burst {
            let addr = DramAddress {
                channel: rng.next_u64() % t.channels,
                rank: rng.next_u64() % t.ranks,
                bank: rng.next_u64() % t.banks(),
                row: rng.next_u64() % 64 % t.rows,
                column: rng.next_u64() % t.columns(),
            };
            out.push(Request::read(addr).at(token * gap));
        }
    }
    out
}

/// Run `reqs` on a fresh system, timing only the run.
fn run_dram(
    spec: &DramSpec,
    cfg: SchedConfig,
    reqs: &[Request],
    workers: usize,
) -> (SimResult, f64) {
    let mut sys = DramSystem::with_config(spec, cfg);
    for r in reqs {
        sys.push(*r);
    }
    timed(|| sys.run_with_threads(workers))
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn dram_channels_run_in_parallel_with_serial_results() {
    let threads = workers();
    let mut speedup = 0.0;
    for channels in [1u64, 2, 4, 8] {
        let spec = lpddr5(channels);
        let reqs = dense_stream(&spec, 4_000 * channels as usize, 42);
        let cfg = SchedConfig::default();
        let (serial, serial_s) = run_dram(&spec, cfg, &reqs, 1);
        let (parallel, parallel_s) = run_dram(&spec, cfg, &reqs, threads);
        assert_eq!(serial, parallel, "{channels} channels: parallel run diverged from serial");
        speedup = serial_s / parallel_s.max(1e-12);
        eprintln!("{channels} channels: {speedup:.2}x on {threads} workers");
    }
    if cores() >= 4 {
        assert!(speedup >= 2.0, "8 channels: only {speedup:.2}x on {} cores", cores());
    }
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn event_engine_matches_stepped_and_is_5x_faster_on_a_sparse_trace() {
    let spec = lpddr5(4);
    let reqs = decode_stream(&spec, 150, 64, 30_000);
    let engine = |engine| SchedConfig { engine };
    let (stepped, stepped_s) = run_dram(&spec, engine(EngineKind::Stepped), &reqs, 1);
    let (event, event_s) = run_dram(&spec, engine(EngineKind::Event), &reqs, 1);
    assert_eq!(stepped, event, "next-event engine diverged from cycle-stepped");
    let speedup = stepped_s / event_s.max(1e-12);
    eprintln!("event engine: {speedup:.1}x stepped");
    assert!(speedup >= 5.0, "event engine only {speedup:.2}x stepped");
}

/// The pool the persistent executor replaced: fresh scoped threads per
/// call, handing out one item per lock of a shared iterator. The
/// dispatch-overhead baseline.
fn scoped_spawn_map(workers: usize, items: &[u64], f: fn(&u64) -> u64) -> Vec<u64> {
    let queue = Mutex::new(items.iter().enumerate());
    let mut out = vec![0; items.len()];
    let parts: Vec<Vec<(usize, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut part = Vec::new();
                    while let Some((i, x)) = queue.lock().unwrap().next() {
                        part.push((i, f(x)));
                    }
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, r) in parts.into_iter().flatten() {
        out[i] = r;
    }
    out
}

/// Per-item work cheap enough that dispatch cost dominates.
fn item_work(x: &u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xABCD
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn executor_dispatch_matches_and_beats_scoped_spawn() {
    let threads = workers();
    let items: Vec<u64> = (0..64).collect();
    let expect: Vec<u64> = items.iter().map(item_work).collect();
    // Equal results, which also warms the lazily spawned executor workers.
    assert_eq!(scoped_spawn_map(threads, &items, item_work), expect);
    assert_eq!(pool::par_map_with(threads, &items, item_work), expect);
    let iters = 200;
    let ((), spawn_s) = timed(|| {
        for _ in 0..iters {
            assert_eq!(scoped_spawn_map(threads, &items, item_work).len(), items.len());
        }
    });
    let ((), executor_s) = timed(|| {
        for _ in 0..iters {
            assert_eq!(pool::par_map_with(threads, &items, item_work).len(), items.len());
        }
    });
    let speedup = spawn_s / executor_s.max(1e-12);
    eprintln!("dispatch: {speedup:.1}x the scoped-spawn baseline on {threads} workers");
    if cores() >= 4 {
        assert!(speedup > 1.0, "executor dispatch {executor_s:.4}s vs scoped spawn {spawn_s:.4}s");
    }
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn fleet_report_is_identical_on_one_worker_and_many() {
    let sim = InferenceSim::new(Platform::get(PlatformId::Iphone)).unwrap();
    let dataset = Dataset::code_autocompletion_like(42, 96);
    let arrival = ArrivalProcess::Poisson { qps: 16.0 };
    let cfg =
        ServeConfig { strategy: Strategy::FacilDynamic, seed: 9, fmfi: 0.0, ..Default::default() };
    let fleet = FleetConfig { devices: 8, routing: Routing::LeastLoaded };
    let run = |workers: usize| {
        pool::set_parallelism(workers);
        timed(|| run_fleet(&sim, &dataset, &arrival, cfg, fleet).unwrap())
    };
    let threads = workers();
    // Warm the lazy re-layout profile and the executor workers first.
    run(threads);
    let (serial, serial_s) = run(1);
    let (parallel, parallel_s) = run(threads);
    pool::set_parallelism(0);
    assert_eq!(serial.to_json(), parallel.to_json(), "fleet report depends on the worker count");
    let speedup = serial_s / parallel_s.max(1e-12);
    eprintln!("fleet: {speedup:.2}x on {threads} workers");
    if cores() >= 4 {
        assert!(speedup >= 1.5, "fleet: only {speedup:.2}x on {} cores", cores());
    }
}

/// Value on an exact-fp16 grid: one of `{-7..=7} / 16`.
fn grid(i: u64) -> f32 {
    ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 15) as f32 * 0.0625 - 0.4375
}

#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads=1"]
fn replay_matches_pim_gemv_and_is_2x_faster() {
    let spec = DramSpec::lpddr5_6400(64, 8 << 30); // iPhone 15 Pro
    let arch = PimArch::aim(&spec.topology);
    let mut shapes: Vec<(u64, u64)> = Vec::new();
    for op in ModelConfig::tiny_fidelity().block_linears() {
        if !shapes.contains(&(op.out_features, op.in_features)) {
            shapes.push((op.out_features, op.in_features));
        }
    }
    assert!(shapes.contains(&(1024, 1024)) && shapes.contains(&(2048, 1024)), "{shapes:?}");
    for (rows, cols) in shapes {
        let mut sys = FacilSystem::new(spec.clone(), arch);
        let alloc = sys.pimalloc(MatrixConfig::new(rows, cols, DType::F16)).unwrap();
        let mut mem = BankedMemory::new(spec.topology);
        let w: Vec<f32> = (0..rows * cols).map(grid).collect();
        store_matrix(&mut mem, &sys, &alloc, &w).unwrap();
        let x: Vec<f32> = (0..cols).map(|i| grid(i ^ 0xFAC1)).collect();
        let seq = CommandSequence::trace(&sys, &alloc).unwrap();
        let bits = |y: Vec<f32>| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Equal bits, which also warms both paths.
        let want = bits(pim_gemv(&mem, &sys, &alloc, &x));
        assert_eq!(bits(replay_gemv(&mem, &seq, &x)), want, "{rows}x{cols}: replay diverged");
        // Best of five alternating runs each.
        let (mut reference_s, mut replay_s) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            reference_s = reference_s.min(timed(|| pim_gemv(&mem, &sys, &alloc, &x)).1);
            replay_s = replay_s.min(timed(|| replay_gemv(&mem, &seq, &x)).1);
        }
        let speedup = reference_s / replay_s.max(1e-12);
        eprintln!(
            "{rows}x{cols}: replay {:.2} ms, pim_gemv {:.2} ms ({speedup:.1}x)",
            replay_s * 1e3,
            reference_s * 1e3
        );
        assert!(speedup >= 2.0, "{rows}x{cols}: replay only {speedup:.2}x pim_gemv");
    }
}
