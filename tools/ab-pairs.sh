#!/usr/bin/env bash
# Alternating-order perfbench pairs of two checkouts on one workload.
#
#   tools/ab-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SECONDS]
#
# Builds each checkout's perfbench/ into $AB_SCRATCH/{parent,change}-target
# (AB_SCRATCH defaults to /root/scratch; the checkouts' committed
# perfbench/Cargo.lock is put back after the build), runs PAIRS (10) pairs
# of `--seed N --seconds SECONDS (12) --trace 0` on seeds 1…PAIRS —
# parent first on odd seeds, change first on even — and prints, per
# end-to-end metric, each side's median and quartiles, how many pairs the
# change won, and the runs that reported `failed` > 0.
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,12p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-12}
scratch=${AB_SCRATCH:-/root/scratch}
mkdir -p "$scratch"

build() { # side dir
    local lock="$2/perfbench/Cargo.lock" keep
    keep=$(mktemp)
    cp "$lock" "$keep"
    (cd "$2" && CARGO_TARGET_DIR="$scratch/$1-target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
    mv "$keep" "$lock"
}
build parent "$parent"
build change "$change"

out=$(mktemp)
run() { # side seed
    local line
    line=$(cd "$scratch" && "./$1-target/release/perfbench" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 $2 $line" >>"$out"
}
for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
    echo "pair $seed/$pairs done" >&2
done

python3 - "$out" "$workload" <<'EOF'
import json, statistics, sys
rows = [l.split(" ", 2) for l in open(sys.argv[1])]
runs = {(side, int(seed)): json.loads(doc) for side, seed, doc in rows}
seeds = sorted({seed for _, seed in runs})
print(f"{sys.argv[2]}: {len(seeds)} alternating pairs")
for metric in ("setup_s", "wall_s", "cpu_s"):
    val = lambda side, s: runs[(side, s)]["metrics"][metric]["value"]
    line = [f"{metric:8}"]
    for side in ("parent", "change"):
        v = [val(side, s) for s in seeds]
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        line.append(f"{side} {statistics.median(v):.3f} [{q[0]:.3f}, {q[2]:.3f}]")
    wins = sum(val("change", s) < val("parent", s) for s in seeds)
    line.append(f"change wins {wins}/{len(seeds)}")
    print("  ".join(line))
bad = [f"{side}#{seed}" for (side, seed), r in sorted(runs.items()) if r["failed"] or not r["correct"]]
print("failed runs:", ", ".join(bad) if bad else "none")
EOF
rm -f "$out"
