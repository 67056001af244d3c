#!/usr/bin/env bash
# Alternating-order perfbench pairs of two checkouts.
#
#   tools/ab-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...]|all [PAIRS] [SECONDS]
#
# Copies each checkout in turn (without .git and build output, keeping
# file times) to the one path $AB_SCRATCH/ab-src and builds its perfbench/
# there into $AB_SCRATCH/{parent,change}-target (AB_SCRATCH defaults to
# the `scratch=` value below). Cargo hashes a package's path into its crate
# metadata, and that hash reaches the machine code, so both sides build
# from the same path: otherwise an A/B can carry codegen the change did not
# make. The checkouts themselves are left untouched. Then it runs PAIRS
# (10) pairs of `--seed N --seconds SECONDS (12) --trace 0` on seeds
# 1…PAIRS — parent first on odd seeds, change first on even — and prints
# one table:
# per workload and end-to-end metric, each side's median and quartiles,
# change ÷ parent, how many pairs the change won, each side's median minor
# page faults per setup or rep (the run's `getrusage` children count over
# the setups and reps its JSON reports), and the runs that reported
# `failed` > 0. A comma-separated list (`loh1-mpml,loh1-serial`: a claim
# and a control) runs those workloads one after the other; `all` runs
# every workload CHANGE_DIR's BENCHMARK.json lists.
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,22p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${4:-10}
seconds=${5:-12}
scratch=${AB_SCRATCH:-/root/scratch}
mkdir -p "$scratch"
if [ "$3" = all ]; then
    workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$change/BENCHMARK.json")
else
    workloads=${3//,/ }
fi

build() { # side dir
    local src="$scratch/ab-src"
    rm -rf "$src"
    mkdir -p "$src"
    tar -C "$2" --exclude=./.git --exclude=target --exclude=./.bench_build -cf - . |
        tar -C "$src" -xf -
    (cd "$src" && CARGO_TARGET_DIR="$scratch/$1-target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
}
build parent "$parent"
build change "$change"

out=$(mktemp)
# One run; appends "WORKLOAD SIDE SEED FAULTS_PER_REP METRICS_JSON".
faults_py='import json, resource, subprocess, sys
lines = subprocess.run(sys.argv[1:], stdout=subprocess.PIPE, text=True,
                       check=True).stdout.strip().split("\n")
faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
samples = json.loads(lines[-2])
print(faults / (samples["setup_s"]["n"] + samples["wall_s"]["n"]), lines[-1])'
run() { # workload side seed
    local line
    line=$(cd "$scratch" && python3 -c "$faults_py" "./$2-target/release/perfbench" \
        --workload "$1" --seed "$3" --seconds "$seconds" --trace 0)
    echo "$1 $2 $3 $line" >>"$out"
}
for workload in $workloads; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then
            run "$workload" parent "$seed"; run "$workload" change "$seed"
        else
            run "$workload" change "$seed"; run "$workload" parent "$seed"
        fi
        echo "$workload: pair $seed/$pairs done" >&2
    done
done

python3 - "$out" <<'EOF'
import json, statistics, sys
rows = [l.split(" ", 4) for l in open(sys.argv[1])]
runs = {(w, side, int(seed)): json.loads(doc) for w, side, seed, _, doc in rows}
faults = {(w, side, int(seed)): float(f) for w, side, seed, f, _ in rows}
workloads = list(dict.fromkeys(w for w, _, _ in runs))
print(f"{'workload':18} {'metric':8} {'parent median [q1, q3]':26} "
      f"{'change median [q1, q3]':26} {'ratio':>6}  wins   faults/rep parent  change")
for w in workloads:
    seeds = sorted({s for ww, _, s in runs if ww == w})
    per_rep = [statistics.median(faults[(w, side, s)] for s in seeds)
               for side in ("parent", "change")]
    for metric in ("setup_s", "wall_s", "cpu_s"):
        val = lambda side, s: runs[(w, side, s)]["metrics"][metric]["value"]
        cells, medians = [], {}
        for side in ("parent", "change"):
            v = [val(side, s) for s in seeds]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            medians[side] = statistics.median(v)
            cells.append(f"{medians[side]:.3f} [{q[0]:.3f}, {q[2]:.3f}]")
        wins = sum(val("change", s) < val("parent", s) for s in seeds)
        ratio = medians["change"] / medians["parent"]
        print(f"{w:18} {metric:8} {cells[0]:26} {cells[1]:26} {ratio:6.3f}  "
              f"{wins:>2}/{len(seeds):<2} {per_rep[0]:17.0f} {per_rep[1]:7.0f}")
bad = [f"{w}/{side}#{seed}" for (w, side, seed), r in sorted(runs.items())
       if r["failed"] or not r["correct"]]
print("failed runs:", ", ".join(bad) if bad else "none")
EOF
rm -f "$out"
