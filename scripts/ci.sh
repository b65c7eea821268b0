#!/usr/bin/env bash
# Local CI: everything the repo expects to pass before a merge. Every
# cargo call that resolves dependencies runs --offline: the workspace is
# std-only and must build from a clean checkout without a registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== std-only guard =="
# Nothing outside this repository may enter the build: the lock file names
# no registry or git source, and every dependency in every manifest is a
# path dependency (directly or through [workspace.dependencies]). No
# package keeps a workspace crate it does not use: every facil-* key under
# a package's [dependencies] or [dev-dependencies] must appear as facil_*
# on a non-comment line of its src/, tests/, benches/ or examples/.
if grep -n '^source = ' Cargo.lock; then
  echo "Cargo.lock names a package from outside the repository" >&2
  exit 1
fi
python3 - Cargo.toml crates/*/Cargo.toml <<'PY'
import os, re, sys, tomllib
bad, unused = [], []
for path in sys.argv[1:]:
    with open(path, "rb") as f:
        m = tomllib.load(f)
    kinds = ("dependencies", "dev-dependencies", "build-dependencies")
    tables = [m.get("workspace", {}).get("dependencies", {})]
    tables += [m.get(k, {}) for k in kinds]
    tables += [t.get(k, {}) for t in m.get("target", {}).values() for k in kinds]
    for deps in tables:
        for name, spec in deps.items():
            if not (isinstance(spec, dict) and ("path" in spec or spec.get("workspace") is True)):
                bad.append(f"{path}: {name}")
    code = []
    for sub in ("src", "tests", "benches", "examples"):
        for top, _, files in os.walk(os.path.join(os.path.dirname(path), sub)):
            for rs in (f for f in files if f.endswith(".rs")):
                with open(os.path.join(top, rs)) as f:
                    code += [line for line in f if not line.lstrip().startswith("//")]
    code = "".join(code)
    for name in (n for k in kinds[:2] for n in m.get(k, {}) if n.startswith("facil-")):
        if not re.search(r"\b" + name.replace("-", "_") + r"\b", code):
            unused.append(f"{path}: {name}")
assert not bad, "non-path dependencies: " + ", ".join(bad)
assert not unused, "unused facil-* dependencies: " + ", ".join(unused)
print(f"std-only OK ({len(sys.argv) - 1} manifests, path dependencies only, all used)")
PY

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== examples (release) =="
# cargo test compiles the examples but runs none of them: run each once,
# failing on a non-zero exit (mapping_explorer traces every paper weight).
for example in examples/*.rs; do
  example="$(basename "$example" .rs)"
  cargo run --release -q --offline --example "$example" > /dev/null
  echo "$example: ran"
done

echo "== committed records (release) =="
# BENCH_mapsearch.json, BENCH_fidelity.json, BENCH_cluster.json and
# BENCH_report.json are the full --json runs of their binaries, committed
# byte for byte: regenerate each and compare. BENCH_mapsearch.json carries
# every searched tensor's replayed hit rate, finish cycle and score, so a
# change to any FR-FCFS decision on those replays fails here;
# BENCH_report.json carries every paper figure and table number, the
# re-layout profiles' share included.
for bin in mapsearch fidelity cluster report; do
  cargo run --release -q --offline -p facil-bench --bin "$bin" -- --json | cmp - "BENCH_$bin.json"
  echo "$bin --json: byte-identical to BENCH_$bin.json"
done

echo "== tests =="
cargo test --workspace -q --offline

echo "== serving pins (release) =="
# The FNV-1a pins of crates/serve/tests/pinned.rs hold in both profiles;
# the debug run above checks the other one.
cargo test --release --offline -q -p facil-serve --test pinned

echo "== DRAM schedule and strategy cost pins (release) =="
# FNV-1a digests of fixed request streams' SimResults and command logs,
# on both engines (crates/dram/tests/pinned.rs: a backlogged stream under
# a 200-cycle tREFI, the same stream at the stock tREFI, whose idle gaps
# must drain both channels and hold every rank's refresh, and twin
# channels), one of the four platforms' re-layout profiles
# (crates/sim/tests/pinned.rs: every request at cycle 0, 4 to 32
# channels, two mappings), and one of every strategy cost InferenceSim
# prices on those platforms (the same file's strategy_costs_are_pinned:
# prefill chunks, whole prefills, queries and decode batches, healthy and
# degraded). All hold in both profiles, and the debug run above checks
# the other one.
cargo test --release --offline -q -p facil-dram --test pinned
cargo test --release --offline -q -p facil-sim --test pinned

echo "== paper-shape replays (release) =="
# Every stock platform's paper-model linear shapes, each as a two-tile row
# slice of full-mantissa fp16 data, whose f32 sums show accumulation
# order: the slice keeps the full matrix's mapping decision, replays bit
# for bit against pim_gemv and the SoC's fixed-order GEMV, lowers to a
# JEDEC-legal all-bank stream on every channel, and stages the pinned most
# global-buffer slices per rank pass (crates/fidelity/tests/roundtrip.rs).
# The debug run above checks the other profile. Then token equivalence on
# every stock platform's geometry with a ragged FFN width
# (crates/fidelity/tests/token_equiv.rs, ignored in debug).
cargo test --release --offline -q -p facil-fidelity --test roundtrip paper_shapes_replay_as_two_tile_slices
cargo test --release --offline -q -p facil-fidelity --test token_equiv -- --ignored

echo "== executor stress (release) =="
# Teardown-race probe: two million tiny two-worker batches, each followed
# by a stack-sentinel check. The race needs an optimised build, so the
# probe is ignored in the debug test run above.
cargo test --release --offline -q -p facil-telemetry --test pool_stress -- --ignored
# The schedule-invisibility properties and the worker-lifecycle test again
# at release timing, where a claim race would show (the debug run above
# checks the other profile).
cargo test --release --offline -q -p facil-telemetry --test pool_properties --test pool_shutdown

echo "== allocator equivalence (release) =="
# The physical-frame allocator, which stores frame words only for partly
# used blocks and reads a full or empty block's words from its free count,
# against the frame-at-a-time reference with its dense bitmap: same pages,
# same compaction, same bits. The random programs and the separator-edge
# cases run again here under release arithmetic (wrapping, no
# debug_assert), beside the Table I-scale case (64 GB, 7,725 huge pages,
# FMFI 0.05 and 0.75) that is too slow for the debug test run above.
cargo test --release --offline -q -p facil-core --lib paging::phys::differential -- --include-ignored

echo "== mutation checks (release) =="
# Oracles that show they can fail: each patch in scripts/mutants/ plants
# one known defect (so far the allocator's separator masks, its fully-free
# cursor, its compaction-victim tie-break and its stale-slot refill) and
# names the tests that must fail on it. The runner copies the tree once to
# a throwaway directory with its own target directory, checks that every
# named test passes unpatched, then applies and reverts each patch in turn
# (release builds, ~1 min on 2 cores). A surviving mutant, a patch that no
# longer applies or builds, or a failing unpatched test fails the stage.
scripts/mutants/run.sh

echo "== rustfmt =="
# (cargo fmt resolves no dependencies and takes no --offline flag.)
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --offline

echo "== report smoke =="
# The one figure entry point: --json prints exactly one run manifest, and
# every paper artifact contributes at least one result key, each holding
# finite numbers only.
cargo run --release -q --offline -p facil-bench --bin report -- --smoke --json \
  | python3 -c 'import json,math,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
assert len(lines) == 1 and "schema_version" in lines[0], f"expected one manifest, got {len(lines)} lines"
m = lines[0]
assert m["bench"] == "report" and "seed" in m, m
def numbers(v):
    if isinstance(v, dict):
        return [x for y in v.values() for x in numbers(y)]
    if isinstance(v, list):
        return [x for y in v for x in numbers(y)]
    return [v]
artifacts = ("fig02", "fig03", "fig06", "table1", "table3", "fig13", "fig14", "fig15", "fig16")
for a in artifacts:
    keys = [k for k in m["results"] if k.startswith(a + "_")]
    assert keys, f"no {a} results"
    for k in keys:
        vals = numbers(m["results"][k])
        assert vals and all(isinstance(x, (int, float)) and math.isfinite(x) for x in vals), (k, vals)
n = len(m["results"])
print(f"report smoke OK ({len(artifacts)} artifacts, {n} result keys)")'

echo "== chaos smoke =="
# Fault-injection showcase must run clean and emit valid JSONL: tagged
# experiment lines plus one schema-versioned run manifest.
cargo run --release -q --offline -p facil-bench --bin chaos -- --smoke --json \
  | python3 -c 'import json,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
assert lines, "chaos --json produced no output"
manifests = [o for o in lines if "schema_version" in o]
runs = [o for o in lines if "schema_version" not in o]
assert len(manifests) == 1, f"expected exactly one run manifest, got {len(manifests)}"
assert manifests[0]["bench"] == "chaos" and "seed" in manifests[0], manifests[0]
for o in runs:
    assert "experiment" in o and "report" in o, o.keys()
degraded = [o for o in runs if o["experiment"] == "degraded_mode"]
assert any(o["report"]["goodput_qps"] > 0 for o in degraded), "no goodput under PIM fault"
crash = [o for o in runs if o["experiment"] == "crash_failover"]
assert all(o["report"]["completed"] + o["report"]["shed"] == o["report"]["offered"] for o in crash)
print(f"chaos smoke OK ({len(runs)} runs + manifest)")'

echo "== serving_v2 smoke =="
# The FCFS column of the continuous-batching comparison is the same device
# scheduler with a batch of one and whole-prefill chunks on an unbounded
# queue: every cb_vs_fcfs line's fcfs block must have shed nothing and
# batched at most one request per iteration.
cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json \
  | python3 -c 'import json,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
runs = [o for o in lines if o.get("experiment") == "cb_vs_fcfs"]
assert runs, "serving_v2 --json produced no cb_vs_fcfs lines"
for o in runs:
    f = o["fcfs"]
    assert f["shed"] == 0, ("FCFS shed", o["strategy"], o["qps"], f["shed"])
    assert 0 < f["mean_batch"] <= 1, ("FCFS batched", o["strategy"], o["qps"], f["mean_batch"])
print(f"serving_v2 smoke OK ({len(runs)} cb_vs_fcfs lines, FCFS batch of one, nothing shed)")'

echo "== perf gates (release) =="
# Wall-clock gates, each on provably equivalent work: serial == parallel
# DRAM SimResults on 1/2/4/8 channels, stepped == next-event engine on a
# low-utilization trace (and >= 5x faster there, on every host), executor
# results == the scoped-spawn baseline's, a byte-identical 8-device fleet
# report on one worker and many, and the functional PIM replay ==
# pim_gemv bit for bit on the tiny-fidelity linears (and >= 2x faster, on
# every host). The >= 2x (channels), > 1x (dispatch) and >= 1.5x (fleet)
# parallel gates arm only on hosts with >= 4 cores. Ignored in the debug
# run above; one at a time so the timings do not share cores.
cargo test --release --offline -q --test perf_gates -- --ignored --test-threads=1

echo "== DRAM engine equivalence smoke =="
# The simulation engine must be invisible in results: serving_v2 --json
# output is byte-identical whether the DRAM backend runs the cycle-stepped
# reference or the next-event engine (FACIL_DRAM_ENGINE selects it).
e1="$(mktemp /tmp/facil-engine-stepped.XXXXXX.jsonl)"
e2="$(mktemp /tmp/facil-engine-event.XXXXXX.jsonl)"
FACIL_DRAM_ENGINE=stepped cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json > "$e1"
FACIL_DRAM_ENGINE=event cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json > "$e2"
diff "$e1" "$e2" && echo "serving_v2 stepped vs event engine: byte-identical"
rm -f "$e1" "$e2"
# A misspelt engine must fail, not silently compare the event engine with
# itself: serving_v2 exits non-zero and names the variable.
if err="$(FACIL_DRAM_ENGINE=steped cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json 2>&1 > /dev/null)"; then
  echo "serving_v2 ran with FACIL_DRAM_ENGINE=steped instead of failing" >&2
  exit 1
fi
if ! grep -q 'FACIL_DRAM_ENGINE="steped"' <<< "$err"; then
  echo "serving_v2 failed with FACIL_DRAM_ENGINE=steped, but not on the engine name:" >&2
  echo "$err" >&2
  exit 1
fi
echo "serving_v2 with FACIL_DRAM_ENGINE=steped: rejected"

echo "== mapsearch smoke =="
# Mapping-search ablation: the JSONL must be well-formed (one SearchReport
# run per platform + one manifest), every Fig. 13 baseline tensor must
# retain the paper's closed-form pick, and at least one searched mapping
# must beat the paper's by more than the incumbent threshold. The full
# report is kept as a CI artifact.
mkdir -p target
mapsearch_artifact="target/BENCH_mapsearch.json"
: > "$mapsearch_artifact"
cargo run --release -q --offline -p facil-bench --bin mapsearch -- --smoke --json \
  | tee "$mapsearch_artifact" \
  | python3 -c 'import json,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
manifests = [o for o in lines if "schema_version" in o]
runs = [o for o in lines if "schema_version" not in o]
assert len(manifests) == 1, f"expected one manifest, got {len(manifests)}"
m = manifests[0]
assert m["bench"] == "mapsearch" and "seed" in m, m
assert m["results"]["baselines_reproduced"] == 1, m
assert len(runs) == 2, f"expected a 2-platform smoke sweep, got {len(runs)}"
threshold = m["config"]["improvement_threshold"]
extras = {"moe-expert", "longctx-ffn"}
wins = 0
for o in runs:
    assert o["experiment"] == "mapsearch", o
    rep = o["report"]
    assert rep["results"], rep["platform"]
    for r in rep["results"]:
        name = rep["platform"] + "/" + r["tensor"]
        if r["tensor"] in extras:
            wins += r["displaced"]
        else:
            assert not r["displaced"], "baseline displaced: " + name
            assert r["best"] == r["paper"], name
        if r["displaced"]:
            assert r["improvement"] > threshold, name
            assert r["best_score"] < r["paper_score"], name
assert wins >= 1, "no searched mapping beat the paper pick"
print(f"mapsearch smoke OK ({len(runs)} platforms, {wins} searched wins)")'
echo "mapsearch artifact: $mapsearch_artifact"

echo "== fidelity smoke =="
# Functional-fidelity gate: the PIM command replay must match the pim_gemv
# reference bit for bit (zero f32/f16 mismatches on every shape x MapID),
# and the FACIL-vs-conventional token streams must be identical. The binary
# itself exits non-zero on any violation; the validator re-checks the JSON
# so a silent schema drift cannot pass. Kept as a CI artifact.
mkdir -p target
fidelity_artifact="target/BENCH_fidelity.json"
: > "$fidelity_artifact"
cargo run --release -q --offline -p facil-bench --bin fidelity -- --smoke --json \
  | tee "$fidelity_artifact" \
  | python3 -c 'import json,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
manifests = [o for o in lines if "schema_version" in o]
runs = [o for o in lines if "schema_version" not in o]
assert len(manifests) == 1, f"expected one manifest, got {len(manifests)}"
m = manifests[0]
assert m["bench"] == "fidelity" and "seed" in m, m
assert m["results"]["mismatches"] == 0, m
assert m["results"]["token_equivalent"] == 1, m
plats = [o for o in runs if o["experiment"] == "fidelity"]
assert plats, "no platform replay runs"
replays = 0
for o in plats:
    rep = o["report"]
    assert rep["mismatches"] == 0, rep["platform"]
    assert rep["shapes"], rep["platform"]
    for s in rep["shapes"]:
        assert s["f32_mismatches"] == 0 and s["f16_mismatches"] == 0, s
        assert s["commands"] > 0 and s["waves"] > 0, s
        replays += 1
assert replays == m["results"]["replays"], (replays, m["results"])
tok = [o for o in runs if o["experiment"] == "fidelity_tokens"]
assert len(tok) == 1, "expected one token-equivalence run"
t = tok[0]["report"]
assert t["equivalent"] is True and t["logit_mismatches"] == 0, t
assert t["facil_tokens"] == t["conventional_tokens"] and len(t["facil_tokens"]) == t["steps"], t
ntok = len(t["facil_tokens"])
print(f"fidelity smoke OK ({replays} bit-exact replays, {ntok} equivalent tokens)")'
echo "fidelity artifact: $fidelity_artifact"

echo "== cluster smoke =="
# Cluster resilience showcase: the JSONL must be well-formed (chaos
# matrix + tenant QoS + autoscale runs and one manifest), every run must
# satisfy the conservation invariant (offered == completed + shed), the
# chaos matrix must degrade availability monotonically, and the
# autoscaler must both grow and shrink the fleet. Kept as a CI artifact.
mkdir -p target
cluster_artifact="target/BENCH_cluster.json"
: > "$cluster_artifact"
cargo run --release -q --offline -p facil-bench --bin cluster -- --smoke --json \
  | tee "$cluster_artifact" \
  | python3 -c 'import json,sys
lines = [json.loads(l) for l in sys.stdin if l.strip()]
manifests = [o for o in lines if "schema_version" in o]
runs = [o for o in lines if "schema_version" not in o]
assert len(manifests) == 1, f"expected one manifest, got {len(manifests)}"
m = manifests[0]
assert m["bench"] == "cluster" and "seed" in m, m
for o in runs:
    assert "experiment" in o and "report" in o, o.keys()
    r = o["report"]
    assert r["completed"] + r["shed"] == r["offered"], ("conservation", o["experiment"], r["offered"], r["completed"], r["shed"])
matrix = [o["report"] for o in runs if o["experiment"] == "chaos_matrix"]
assert len(matrix) == 3, f"expected a 3-point chaos matrix, got {len(matrix)}"
assert matrix[0]["availability"] == 1.0, matrix[0]["availability"]
assert matrix[0]["availability"] >= matrix[1]["availability"] >= matrix[2]["availability"], \
    [r["availability"] for r in matrix]
qos = [o["report"] for o in runs if o["experiment"] == "tenant_qos"]
assert len(qos) == 1 and qos[0]["shed_quota"] > 0, "tenant quota never bound"
scale = [o["report"] for o in runs if o["experiment"] == "autoscale"]
assert len(scale) == 1, runs
assert scale[0]["scale_outs"] >= 1 and scale[0]["scale_ins"] >= 1, \
    (scale[0]["scale_outs"], scale[0]["scale_ins"])
storm = matrix[-1]["availability"]
outs = scale[0]["scale_outs"]
print(f"cluster smoke OK ({len(runs)} runs, storm availability {storm:.2f}, {outs} scale-outs)")'
echo "cluster artifact: $cluster_artifact"

echo "== FACIL_THREADS determinism smoke =="
# The worker-count knob must be invisible in results: serving_v2, chaos
# and cluster are byte-identical between 1 and 8 workers. chaos covers
# fleets with faults, whose device phases run on the shared driver's
# parallel path.
for bin in serving_v2 chaos cluster; do
  t1="$(mktemp /tmp/facil-threads1.XXXXXX.jsonl)"
  t8="$(mktemp /tmp/facil-threads8.XXXXXX.jsonl)"
  FACIL_THREADS=1 cargo run --release -q --offline -p facil-bench --bin "$bin" -- --smoke --json > "$t1"
  FACIL_THREADS=8 cargo run --release -q --offline -p facil-bench --bin "$bin" -- --smoke --json > "$t8"
  diff "$t1" "$t8" && echo "$bin FACIL_THREADS=1 vs 8: byte-identical"
  rm -f "$t1" "$t8"
done
# A malformed count must fail, not silently run on every core (which would
# compare one width with itself above): serving_v2 exits non-zero and
# names the variable.
if err="$(FACIL_THREADS=eight cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json 2>&1 > /dev/null)"; then
  echo "serving_v2 ran with FACIL_THREADS=eight instead of failing" >&2
  exit 1
fi
if ! grep -q 'FACIL_THREADS="eight"' <<< "$err"; then
  echo "serving_v2 failed with FACIL_THREADS=eight, but not on the variable:" >&2
  echo "$err" >&2
  exit 1
fi
echo "serving_v2 with FACIL_THREADS=eight: rejected"

echo "== trace export smoke =="
# serving_v2 --trace must write a valid Chrome trace_event file carrying
# DRAM-command, PIM-kernel and serve-scheduler tracks.
trace_out="$(mktemp /tmp/facil-trace.XXXXXX.json)"
cargo run --release -q --offline -p facil-bench --bin serving_v2 -- --smoke --json --trace "$trace_out" \
  > /dev/null
python3 -c "import json,sys
t = json.load(open('$trace_out'))
evs = t['traceEvents']
procs = {e['args']['name'] for e in evs if e.get('ph') == 'M' and e.get('name') == 'process_name'}
assert {'dram', 'pim', 'serve'} <= procs, f'missing process groups: {procs}'
names = {e['name'] for e in evs if e.get('ph') in ('X', 'i')}
for expected in ('ACT', 'GEMV', 'batch', 'admit'):
    assert expected in names, f'missing {expected} events: {sorted(names)}'
print(f'trace export OK ({len(evs)} events, processes {sorted(procs)})')"
rm -f "$trace_out"

echo "== non-test Rust lines (informational) =="
# Every .rs under crates/*/src and src/, each up to its unit-test module.
# Printed for the record; no threshold.
python3 scripts/loc.py

echo "== benchmark smoke =="
# The end-to-end benchmark (benchmark/, its own workspace) on shrunken
# inputs: every workload once timed and once traced, each run checked.
benchmark/smoke.sh

echo "CI OK"
