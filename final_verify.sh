#!/bin/bash
# Final verification sequence (run from /root/repo).
set -x
cd /root/repo
# Cap property-based suites so the run stays fast and deterministic on the
# 1-core CI host; the shim honours PROPTEST_CASES like real proptest does
# (and additionally treats it as a hard cap on explicit configs). See README.
export PROPTEST_CASES="${PROPTEST_CASES:-16}"
cargo build --workspace --release 2>&1 | grep -E "^(error|warning)" | head -20
echo "=== BUILD DONE ==="
cargo clippy --workspace -- -D warnings 2>&1 | grep -E "^(error|warning)" | head -20
echo "clippy exit ${PIPESTATUS[0]}"
echo "=== CLIPPY DONE ==="
cargo test --workspace --no-fail-fast 2>&1 | tee results/logs/test_output.log | grep -E "test result|FAILED|error\[" | tail -60
echo "=== TESTS DONE ==="
# Smoke-run the examples and CLI.
timeout 600 ./target/release/examples/quickstart > results/logs/example_quickstart.log 2>&1; echo "quickstart exit $?"
timeout 900 ./target/release/examples/cluster_scaling > results/logs/example_cluster_scaling.log 2>&1; echo "cluster_scaling exit $?"
timeout 1800 ./target/release/examples/m8_dynamic > results/logs/example_m8_dynamic.log 2>&1; echo "m8_dynamic exit $?"
timeout 1800 ./target/release/examples/shakeout_scenario > results/logs/example_shakeout.log 2>&1; echo "shakeout exit $?"
./target/release/awp scenarios > results/logs/cli_scenarios.log 2>&1; echo "cli exit $?"
./target/release/awp efficiency >> results/logs/cli_scenarios.log 2>&1; echo "cli2 exit $?"
# Fixed-seed chaos soak: injected faults + epoch-fallback restart must
# reproduce the clean run bit-for-bit (nonzero exit on any mismatch).
timeout 900 ./target/release/awp chaos --chaos-seed 3405691582 > results/logs/cli_chaos.log 2>&1; echo "chaos exit $?"
# Recovery drills: a seeded rank crash and a seeded rank stall must each be
# absorbed *in flight* (supervisor rollback-rejoin: recovery counters > 0,
# zero whole-run restarts, no degradation) and stay bit-identical to the
# clean run. The awp binary enforces the gate and exits nonzero otherwise.
timeout 900 ./target/release/awp chaos --recover --fault crash --chaos-seed 3405691582 > results/logs/cli_recover_crash.log 2>&1; echo "recover_crash exit $?"
timeout 900 ./target/release/awp chaos --recover --fault stall --chaos-seed 3405691582 > results/logs/cli_recover_stall.log 2>&1; echo "recover_stall exit $?"
grep -q "in-flight recoveries: [1-9]" results/logs/cli_recover_crash.log; echo "recover_crash_counted exit $?"
grep -q "whole-run restarts: 0" results/logs/cli_recover_crash.log; echo "recover_crash_inflight exit $?"
grep -q "in-flight recoveries: [1-9]" results/logs/cli_recover_stall.log; echo "recover_stall_counted exit $?"
grep -q "whole-run restarts: 0" results/logs/cli_recover_stall.log; echo "recover_stall_inflight exit $?"
timeout 600 ./target/release/s7b_memory > results/logs/s7b_memory.log 2>&1; echo "s7b exit $?"
timeout 600 ./target/release/s7c_resilience > results/logs/s7c_resilience.log 2>&1; echo "s7c exit $?"
echo "=== EXAMPLES DONE ==="
# Overlap smoke: the k-slab pipelined timestep must stay bit-exact to the
# fused and serial paths across decompositions/backends (property + cluster
# tests; the suite keeps its file name).
cargo test --release -p awp-solver --test shell_overlap 2>&1 | grep -E "test result|FAILED"; echo "overlap_smoke exit ${PIPESTATUS[0]}"
# Absolute pins: every stepping path must reproduce its recorded hash.
cargo test --release -p awp-solver --test step_golden 2>&1 | grep -E "test result|FAILED"; echo "step_golden exit ${PIPESTATUS[0]}"
# The folded sponge against the separate-pass stepper, every backend.
cargo test --release -p awp-solver --lib fold_tests 2>&1 | grep -E "test result|FAILED"; echo "fold_tests exit ${PIPESTATUS[0]}"
echo "=== OVERLAP SMOKE DONE ==="
# Perf regression gate: nonzero exit if the SIMD kernels are slower than
# scalar, the steady-state exchange path allocates (arena ledger), the
# overlap run loses to the plain run on the multi-rank config, enabling
# telemetry costs more than the hardware-aware tolerance vs disabled, or
# the work-stealing scheduler loses to the unscheduled run on the skewed
# decomposition (>=1.05x required multi-core, no-regression on 1 core).
timeout 900 ./target/release/bench_kernels --smoke --gate > results/logs/bench_kernels.log 2>&1; echo "bench_gate exit $?"
echo "=== BENCH GATE DONE ==="
# Perfbench gate: the benchmark's own traced smoke run of all six
# workloads must pass every check, so the one stepper is exercised through
# run_serial, core::workflow, the ensemble engine and the serve miss path.
# Wavefield arithmetic runs flushed (awp_grid::fpmode), so the three solver
# workloads must also find no subnormal value at their slowest step.
for w in loh1-serial loh1-mpml basin-lts shakeout-workflow catalog-ensemble serve-mix; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --smoke --trace 1 2>/dev/null | tail -1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
solver = sys.argv[1] in ("loh1-serial", "loh1-mpml", "basin-lts")
frac = r["metrics"]["solver.subnormal_frac"]["value"] if solver else 0
assert r["failed"] == 0 and frac == 0, (r["failed"], frac)
print(sys.argv[1], "failed 0" + ", subnormal_frac 0" * solver)' "$w"; echo "perfbench_gate_$w exit $?"
done
echo "=== PERFBENCH GATE DONE ==="
# Telemetry smoke: a profiled workflow must print nonzero phase totals and
# a load-imbalance ratio, and the Chrome trace must be well-formed (the awp
# binary parses it back and exits nonzero on schema violations; disabled-
# overhead is gated inside bench_kernels above).
timeout 900 ./target/release/awp workflow shakeout-k 24 12 --profile --trace-out results/logs/profile_trace.json.tmp > results/logs/cli_profile.log 2>&1; echo "profile exit $?"
grep -q "chrome trace" results/logs/cli_profile.log; echo "trace_written exit $?"
grep -q "load imbalance" results/logs/cli_profile.log; echo "imbalance_printed exit $?"
grep -Eq "velocity_interior +[1-9]" results/logs/cli_profile.log; echo "phase_nonzero exit $?"
grep -q '"traceEvents"' results/logs/profile_trace.json.tmp; echo "trace_json exit $?"
echo "=== TELEMETRY SMOKE DONE ==="
# Live stats endpoint smoke: `awp stats --smoke` runs a scheduler-armed
# workflow with the streaming endpoint bound to an ephemeral TCP port, a
# concurrent client reads the stream, and the binary exits nonzero unless
# the hello line negotiates awp-stats v1 and >=2 snapshots pass the full
# schema check (monotonic seq, per-rank cells matching the advertised
# rank count, finite imbalance/hidden-comm).
timeout 900 ./target/release/awp stats --smoke > results/logs/cli_stats.log 2>&1; echo "stats_smoke exit $?"
grep -q "stats smoke passed" results/logs/cli_stats.log; echo "stats_valid exit $?"
# Scheduler drills: a scheduler-armed workflow must stay bit-identical to
# the clean unscheduled archive (the --sched chaos drill composes stealing
# with a seeded in-flight crash recovery on top).
timeout 900 ./target/release/awp workflow shakeout-k 24 12 --sched > results/logs/cli_sched.log 2>&1; echo "sched_workflow exit $?"
grep -q "archive verified: true" results/logs/cli_sched.log; echo "sched_bitexact exit $?"
timeout 900 ./target/release/awp chaos --recover --fault crash --sched --chaos-seed 3405691582 > results/logs/cli_recover_sched.log 2>&1; echo "recover_sched exit $?"
grep -q "in-flight recoveries: [1-9]" results/logs/cli_recover_sched.log; echo "recover_sched_counted exit $?"
echo "=== SCHEDULER SMOKE DONE ==="
# Verification subsystem: analytic-accuracy + convergence-order + schedule
# fuzzer. The unit suite runs in release (the accuracy cases propagate real
# wavefields), then the CLI smoke gate must pass its own thresholds and emit
# a schema-valid results/verify.json (awp exits nonzero on either failure).
# Timeout is sized for the 1-core host (~3 min typical, 6x headroom).
cargo test --release -p awp-verify 2>&1 | grep -E "test result|FAILED"; echo "verify_tests exit ${PIPESTATUS[0]}"
timeout 1200 ./target/release/awp verify --smoke > results/logs/cli_verify.log 2>&1; echo "verify_smoke exit $?"
# Local time stepping: the same accuracy/convergence gates with opts.lts
# armed (the homogeneous analytic media collapse the cluster ladder to one
# cluster, so this asserts LTS's bit-exact delegation contract end to end),
# plus the LTS solver suite (multi-rate bit-exactness across decomps, the
# schedule fuzzer, accuracy vs global dt) and the workflow composition
# tests (cluster-aligned checkpoints, restart, in-flight recovery).
timeout 1200 ./target/release/awp verify --smoke --lts > results/logs/cli_verify_lts.log 2>&1; echo "verify_lts_smoke exit $?"
cargo test --release -p awp-solver --test lts 2>&1 | grep -E "test result|FAILED"; echo "lts_tests exit ${PIPESTATUS[0]}"
cargo test --release -p awp-odc --test lts_workflow 2>&1 | grep -E "test result|FAILED"; echo "lts_workflow_tests exit ${PIPESTATUS[0]}"
# BENCH_lts.json gate: the committed full-mode artifact must exist, carry a
# multi-rate ladder, and record the acceptance speedup (≥1.5× measured,
# census ratio reported alongside). The smoke bench gate above re-measures
# on this host; this check pins the recorded trajectory point.
python3 - <<'EOF'; echo "bench_lts_artifact exit $?"
import json, sys
r = json.load(open("BENCH_lts.json"))
assert r["mode"] == "full", r["mode"]
assert len(r["clusters"]) >= 2, r["clusters"]
assert r["measured_speedup"] >= 1.5, r["measured_speedup"]
assert r["theoretical_speedup"] > 1.0, r["theoretical_speedup"]
assert r["gate"]["passed"] is True
print(f"BENCH_lts.json: {r['measured_speedup']:.2f}x measured, "
      f"{r['theoretical_speedup']:.2f}x census")
EOF
# BENCH_sched.json gate: the committed full-mode artifact must record the
# skewed-decomposition scheduler row with a passing hardware-aware gate
# (>=1.05x where the recording host had a second core for the thief; the
# gate degrades to no-regression on a 1-core recorder, mirroring the live
# smoke gate above).
python3 - <<'EOF'; echo "bench_sched_artifact exit $?"
import json
r = json.load(open("BENCH_sched.json"))
assert r["mode"] == "full", r["mode"]
assert r["parts"] == [2, 1, 1], r["parts"]
assert r["skew_columns"] > 0, r["skew_columns"]
assert r["off_wall_secs"] > 0 and r["sched_wall_secs"] > 0
assert r["off_imbalance"] >= 1.0, r["off_imbalance"]
assert r["gate"]["passed"] is True
if r["gate"]["cores"] >= 2:
    assert r["measured_speedup"] >= 1.05, r["measured_speedup"]
print(f"BENCH_sched.json: {r['measured_speedup']:.2f}x measured on "
      f"{r['gate']['cores']} cores, {r['tiles_stolen']} tiles stolen")
EOF
echo "=== VERIFY DONE ==="
# Causal analyzer smoke: trace an 8-rank --lts workflow in process, parse
# the trace back into the cross-rank causal DAG, and require the critical
# path to cover >=90% of the wall clock (awp exits nonzero otherwise); the
# emitted results/analyze.json must be schema-valid and carry a covering
# path and a non-empty DAG.
timeout 900 ./target/release/awp analyze --smoke > results/logs/cli_analyze.log 2>&1; echo "analyze_smoke exit $?"
grep -q "analyze smoke passed" results/logs/cli_analyze.log; echo "analyze_gate exit $?"
python3 - <<'EOF'; echo "analyze_artifact exit $?"
import json
r = json.load(open("results/analyze.json"))
assert r["v"] == 1 and r["kind"] == "analyze", (r.get("v"), r.get("kind"))
assert r["edges"] > 0 and r["spans"] > 0, (r["edges"], r["spans"])
assert r["hops"] > 0 and r["wall_ns"] > 0
assert r["coverage"] >= 0.90, r["coverage"]
assert len(r["ranks"]) == 8, len(r["ranks"])
assert r["phases"], "empty phase attribution"
print(f"analyze.json: {r['hops']} hops, {r['edges']} edges, "
      f"coverage {r['coverage']*100:.1f}%")
EOF
# Flight-recorder drill: a seeded rank-1 crash with the black box armed
# must dump results/flightrec-1.json before quarantine; the dump must
# parse and carry envelope lineage (clock-stamped sends/recvs) and span
# tails for the crashed rank.
rm -f results/flightrec-*.json
timeout 900 ./target/release/awp chaos --recover --fault crash --flight-dir results --chaos-seed 3405691582 > results/logs/cli_flightrec.log 2>&1; echo "flightrec_drill exit $?"
python3 - <<'EOF'; echo "flightrec_artifact exit $?"
import json
r = json.load(open("results/flightrec-1.json"))
assert r["v"] == 1 and r["kind"] == "flightrec", (r.get("v"), r.get("kind"))
assert r["rank"] == 1, r["rank"]
assert "Crash" in r["reason"], r["reason"]
assert r["total_envelopes"] > 0 and len(r["envelopes"]) > 0
assert len(r["spans"]) > 0
env = r["envelopes"][-1]
for key in ("dir", "peer", "tag", "bytes", "clock", "step", "t_us"):
    assert key in env, key
assert env["clock"] > 0, env
print(f"flightrec-1.json: {r['total_envelopes']} envelopes "
      f"({len(r['envelopes'])} retained), reason: {r['reason']}")
EOF
rm -f results/flightrec-*.json
echo "=== CAUSAL TRACING DONE ==="
# Ensemble/serve smoke: in-process awp-serve v1 server + client. The gate
# requires a seeded 8-event catalog to drain through the persistent job
# queue, a repeated site query to be a cache hit against the content-
# addressed store, and a cold-store replay of the same catalog to
# reproduce every stored artifact bit-exact (manifest MD5 comparison plus
# re-verification from the bytes); awp exits nonzero otherwise.
timeout 900 ./target/release/awp serve --smoke > results/logs/cli_serve.log 2>&1; echo "serve_smoke exit $?"
grep -q "serve smoke passed" results/logs/cli_serve.log; echo "serve_valid exit $?"
grep -q "cold replay bit-exact" results/logs/cli_serve.log; echo "serve_replay exit $?"
echo "=== SERVE SMOKE DONE ==="
# Hygiene gate: a clean run must leave no untracked scratch files behind
# (everything a smoke run writes is either tracked under results/ or
# covered by .gitignore). Nonzero exit lists the strays.
stray="$(git ls-files --others --exclude-standard)"
if [ -n "$stray" ]; then echo "untracked scratch files: $stray"; fi
test -z "$stray"; echo "scratch_clean exit $?"
# Empty directories are invisible to `git ls-files --others` (git does not
# track directories), so an `examples_tmp/`-style stray survives the check
# above. Catch those too, pruning build output and the git store.
straydirs="$(find . -type d -empty \
  -not -path './.git/*' -not -path './target/*' \
  -not -path './tools/shims/*/target/*' -not -path '*/.git' | sort)"
if [ -n "$straydirs" ]; then echo "untracked empty directories: $straydirs"; fi
test -z "$straydirs"; echo "emptydir_clean exit $?"
echo "=== HYGIENE DONE ==="
