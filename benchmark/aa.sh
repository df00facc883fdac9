#!/usr/bin/env bash
# A/A check: the full suite twice on the same build, the second time with the
# workloads in reverse order, printed side by side. Fails if any end-to-end
# metric of any workload differs between the two sets by more than its bound
# in BENCHMARK.json, or if any op of either set failed or was wrong.
#
#   benchmark/aa.sh [--seed N] [--seconds S]
#
# A bound that fails here is too tight for the host (or the run too short):
# lengthen the run first; widen the bound only with this table as evidence.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

out="${CARGO_TARGET_DIR:-target/benchmark}/out"
mkdir -p "$out"
forward=(fig3_sweep scale_4096 whatif_replay_1k whatif_analytic_10k)
backward=(whatif_analytic_10k whatif_replay_1k scale_4096 fig3_sweep)

run_set() {
  local log=$1
  shift
  : >"$log"
  for workload in "$@"; do
    benchmark/run.sh --workload "$workload" --trace 0 "${args[@]}" | tee -a "$log"
  done
}

args=("$@")
((${#args[@]})) || args=(--seed 0)
run_set "$out/aa_A.txt" "${forward[@]}"
run_set "$out/aa_B.txt" "${backward[@]}"

python3 - "$out/aa_A.txt" "$out/aa_B.txt" <<'EOF'
import json, sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
workloads = [w["name"] for w in bench["workloads"]]

def metrics(path):
    found = {}
    for line in open(path):
        f = line.split()
        if len(f) >= 4 and f[0] in workloads and f[1] in bounds:
            found[(f[0], f[1])] = (float(f[2]), f[3])
    return found

a, b = metrics(sys.argv[1]), metrics(sys.argv[2])
print("\n==== A/A: same build, workload order reversed ====")
print(f"{'workload':22} {'metric':12} {'A':>14} {'B':>14} {'unit':5} {'diff':>8} {'bound':>6}")
failed = False
for w in workloads:
    for name, bound in bounds.items():
        if (w, name) not in a or (w, name) not in b:
            print(f"{w:22} {name:12} missing from one set")
            failed = True
            continue
        (va, unit), (vb, _) = a[(w, name)], b[(w, name)]
        diff = abs(vb - va) / min(va, vb)
        verdict = "" if diff <= bound else "  <-- beyond its bound"
        failed |= diff > bound
        print(f"{w:22} {name:12} {va:14.4f} {vb:14.4f} {unit:5} {100 * diff:7.2f}% {100 * bound:5.0f}%{verdict}")
sys.exit(1 if failed else 0)
EOF
