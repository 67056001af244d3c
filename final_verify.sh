#!/bin/bash
# Final verification sequence (run from /root/repo).
set -x
cd /root/repo
# Console logs land here; they are build output, not tracked.
mkdir -p results/logs
# Cap property-based suites so the run stays fast and deterministic on the
# 1-core CI host; the shim honours PROPTEST_CASES like real proptest does
# (and additionally treats it as a hard cap on explicit configs). See README.
export PROPTEST_CASES="${PROPTEST_CASES:-16}"
cargo build --workspace --release 2>&1 | grep -E "^(error|warning)" | head -20
# The example smoke runs below execute these binaries; the workspace build
# does not build examples.
cargo build --release --examples -p awp-odc 2>&1 | grep -E "^(error|warning)" | head -20
echo "=== BUILD DONE ==="
cargo clippy --workspace -- -D warnings 2>&1 | grep -E "^(error|warning)" | head -20
echo "clippy exit ${PIPESTATUS[0]}"
echo "=== CLIPPY DONE ==="
# Doc links: a rustdoc link to a deleted, ambiguous or private item fails
# the step (a public page cannot link a private item).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" cargo doc --workspace --no-deps > results/logs/rustdoc.log 2>&1; echo "rustdoc_links exit $?"
cargo test --workspace --no-fail-fast 2>&1 | tee results/logs/test_output.log | grep -E "test result|FAILED|error\[" | tail -60
echo "=== TESTS DONE ==="
# Smoke-run the examples and CLI.
timeout 600 ./target/release/examples/quickstart > results/logs/example_quickstart.log 2>&1; echo "quickstart exit $?"
timeout 900 ./target/release/examples/cluster_scaling > results/logs/example_cluster_scaling.log 2>&1; echo "cluster_scaling exit $?"
timeout 1800 ./target/release/examples/m8_dynamic > results/logs/example_m8_dynamic.log 2>&1; echo "m8_dynamic exit $?"
timeout 1800 ./target/release/examples/shakeout_scenario > results/logs/example_shakeout.log 2>&1; echo "shakeout exit $?"
./target/release/awp scenarios > results/logs/cli_scenarios.log 2>&1; echo "cli exit $?"
# Fixed-seed chaos soak: injected faults + epoch-fallback restart must
# reproduce the clean run bit-for-bit (nonzero exit on any mismatch).
timeout 900 ./target/release/awp chaos --chaos-seed 3405691582 > results/logs/cli_chaos.log 2>&1; echo "chaos exit $?"
# Directed-fault drills: a rank crash and a rank stall (caught by the
# watchdog as a hang) must each cost exactly one whole-run restart from the
# newest consistent checkpoint epoch and stay bit-identical to the clean
# run. The awp binary enforces bit-identity and exits nonzero otherwise.
timeout 900 ./target/release/awp chaos --fault crash --chaos-seed 3405691582 > results/logs/cli_recover_crash.log 2>&1; echo "recover_crash exit $?"
timeout 900 ./target/release/awp chaos --fault stall --chaos-seed 3405691582 > results/logs/cli_recover_stall.log 2>&1; echo "recover_stall exit $?"
grep -qx "  restarts: 1" results/logs/cli_recover_crash.log; echo "recover_crash_restarts exit $?"
grep -qx "  restarts: 1" results/logs/cli_recover_stall.log; echo "recover_stall_restarts exit $?"
echo "=== EXAMPLES DONE ==="
# LTS trajectory gate: row LTS's committed full-mode record must exist,
# carry a multi-rate ladder, and record the acceptance speedup (≥1.5×
# measured, census ratio reported alongside). It runs before `awp repro`
# below, which re-measures on this host and rewrites the record, so it reads
# the recorded trajectory point.
python3 - <<'EOF'; echo "bench_lts_artifact exit $?"
import json, sys
r = json.load(open("results/lts.json"))["data"]["values"]
assert r["mode"] == "full", r["mode"]
assert len(r["clusters"]) >= 2, r["clusters"]
assert r["measured_speedup"] >= 1.5, r["measured_speedup"]
assert r["theoretical_speedup"] > 1.0, r["theoretical_speedup"]
assert r["gate"]["passed"] is True
print(f"results/lts.json: {r['measured_speedup']:.2f}x measured, "
      f"{r['theoretical_speedup']:.2f}x census")
EOF
# The paper's evaluation: every `awp repro` row at full size, each row's
# verdict against the one it records (nonzero exit on any difference). It
# rewrites results/<id>.json with this host's measurements.
timeout 1800 ./target/release/awp repro > results/logs/cli_repro.log 2>&1; echo "repro exit $?"
echo "=== REPRO DONE ==="
# Perf regression gate: rows OVL and LTS of the table above, timed there
# once at full size. Nonzero exit unless both ran and agree with their
# recorded outcomes: the SIMD kernels not slower than scalar, the
# steady-state exchange allocation-free (arena ledger), telemetry within its
# hardware-aware tolerance of disabled, and LTS ≥ 1.5× global-dt stepping
# on the basin-contrast medium.
awk '/^(OVL|LTS) +[^ ]+ expected/ { seen[$1] = 1; if (/DIFFERS/) bad = 1 }
     END { exit !(seen["OVL"] && seen["LTS"] && !bad) }' results/logs/cli_repro.log; echo "bench_gate exit $?"
echo "=== BENCH GATE DONE ==="
# Decomposition smoke: every rank decomposition must stay bit-exact to the
# serial run across boundary kinds, media, LTS and delivery orders, and the
# windowed kernels to the fused ones across backends.
cargo test --release -p awp-solver --test decomposition 2>&1 | grep -E "test result|FAILED"; echo "decomposition_smoke exit ${PIPESTATUS[0]}"
# Absolute pins: every stepping path must reproduce its recorded hash.
cargo test --release -p awp-solver --test step_golden 2>&1 | grep -E "test result|FAILED"; echo "step_golden exit ${PIPESTATUS[0]}"
# Byte pins: every file a two-rank checkpointed workflow writes (mesh
# files, parts, checkpoint epochs, surface output and its archive copy).
cargo test --release -p awp-odc --test workflow workflow_files_are_byte_pinned 2>&1 | grep -E "test result|FAILED"; echo "byte_pins exit ${PIPESTATUS[0]}"
# The folded sponge against the separate-pass stepper, every backend.
cargo test --release -p awp-solver --lib fold_tests 2>&1 | grep -E "test result|FAILED"; echo "fold_tests exit ${PIPESTATUS[0]}"
echo "=== STEPPER SMOKE DONE ==="
# Perfbench gate: the benchmark's own traced smoke run of all six
# workloads must pass every check, so the one stepper is exercised through
# run_serial, core::workflow, the ensemble engine and the serve miss path.
# Wavefield arithmetic runs flushed (awp_grid::fpmode), so the three solver
# workloads must also find no subnormal value at their slowest step.
# perfbench/ is its own workspace, and a clean build of it rewrites its
# committed Cargo.lock: keep a copy and put it back after the gate.
cp perfbench/Cargo.lock results/logs/perfbench-Cargo.lock.tmp
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
mv results/logs/perfbench-Cargo.lock.tmp perfbench/Cargo.lock
echo "=== PERFBENCH GATE DONE ==="
# Telemetry smoke: a profiled workflow must print nonzero phase totals and
# a load-imbalance ratio, and the Chrome trace must be well-formed (the awp
# binary parses it back and exits nonzero on schema violations; disabled-
# overhead is gated by row OVL above).
timeout 900 ./target/release/awp workflow shakeout-k 24 12 --profile --trace-out results/logs/profile_trace.json.tmp > results/logs/cli_profile.log 2>&1; echo "profile exit $?"
grep -q "chrome trace" results/logs/cli_profile.log; echo "trace_written exit $?"
grep -q "load imbalance" results/logs/cli_profile.log; echo "imbalance_printed exit $?"
grep -Eq "velocity_interior +[1-9]" results/logs/cli_profile.log; echo "phase_nonzero exit $?"
grep -q '"traceEvents"' results/logs/profile_trace.json.tmp; echo "trace_json exit $?"
echo "=== TELEMETRY SMOKE DONE ==="
# Live stats endpoint smoke: `awp stats --smoke` runs a shakeout-k
# workflow with the streaming endpoint bound to an ephemeral TCP port, a
# concurrent client reads the stream, and the binary exits nonzero unless
# the hello line negotiates awp-stats v2 and >=2 snapshots pass the full
# schema check (monotonic seq, per-rank cells matching the advertised
# rank count, finite imbalance/hidden-comm).
timeout 900 ./target/release/awp stats --smoke > results/logs/cli_stats.log 2>&1; echo "stats_smoke exit $?"
grep -q "stats smoke passed" results/logs/cli_stats.log; echo "stats_valid exit $?"
# The wire layer both servers stand on: the request line cap, connection
# threads reaped on accept with a prompt stop, and the hello check.
cargo test --release -p awp-odc --lib wire:: 2>&1 | grep -E "test result|FAILED"; echo "wire_tests exit ${PIPESTATUS[0]}"
# Verification subsystem: analytic-accuracy + convergence-order + schedule
# fuzzer. The unit suite runs in release (the accuracy cases propagate real
# wavefields); row VRF of the full-table `awp repro` above judges the
# full-size gates, and its single-cluster check with the LTS suite's
# single-cluster bit-exactness test covers LTS on the analytic media.
cargo test --release -p awp-verify 2>&1 | grep -E "test result|FAILED"; echo "verify_tests exit ${PIPESTATUS[0]}"
# Local time stepping: the LTS solver suite (multi-rate bit-exactness across
# decomps, the schedule fuzzer, accuracy vs global dt) and the workflow
# composition tests (cluster-aligned checkpoints, restart).
cargo test --release -p awp-solver --test lts 2>&1 | grep -E "test result|FAILED"; echo "lts_tests exit ${PIPESTATUS[0]}"
cargo test --release -p awp-odc --test lts_workflow 2>&1 | grep -E "test result|FAILED"; echo "lts_workflow_tests exit ${PIPESTATUS[0]}"
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
# Flight-recorder drill: a directed rank-1 crash with the black box armed
# must dump results/flightrec-1.json at the cluster's fault boundary; the
# dump must parse and carry envelope lineage (clock-stamped sends/recvs)
# and span tails for the crashed rank.
rm -f results/flightrec-*.json
timeout 900 ./target/release/awp chaos --fault crash --flight-dir results --chaos-seed 3405691582 > results/logs/cli_flightrec.log 2>&1; echo "flightrec_drill exit $?"
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
# The awp subcommand table: listings exit 0; an unknown subcommand, an
# undeclared flag or a bad value prints the usage and exits 2.
cargo test --release -p awp-ensemble --test cli 2>&1 | grep -E "test result|FAILED"; echo "cli_tests exit ${PIPESTATUS[0]}"
# The serde_json shim is not a workspace member: its `json!` property test
# (direct conversion ≡ serialise→parse) runs here.
cargo test --release --manifest-path tools/shims/serde_json/Cargo.toml 2>&1 | grep -E "test result|FAILED"; echo "json_shim_tests exit ${PIPESTATUS[0]}"
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
  -not -path './perfbench/target/*' -not -path './.bench_build/*' \
  -not -path './tools/shims/*/target/*' -not -path '*/.git' | sort)"
if [ -n "$straydirs" ]; then echo "untracked empty directories: $straydirs"; fi
test -z "$straydirs"; echo "emptydir_clean exit $?"
# Tracked files: a run must leave each one as HEAD has it (so run this on
# a committed tree), except the results/*.json records that the full-table
# `awp repro` and the analyze smoke above rewrite with this host's
# measurements. Nonzero exit lists the modified files.
changed="$(git diff --name-only HEAD -- . ':(exclude)results/*.json')"
if [ -n "$changed" ]; then echo "tracked files modified: $changed"; fi
test -z "$changed"; echo "tracked_clean exit $?"
echo "=== HYGIENE DONE ==="
