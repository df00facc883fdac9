#!/usr/bin/env bash
# numagap-perf: build untimed, then run each workload in a process of its own.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Prints every metric as `workload metric value unit` and, last, the workload's
# JSON result line. Exits non-zero on any failed or wrong op. Without
# --workload, all four workloads run in turn. --smoke is the reduced-count
# mode for CI (all four workloads in about 20 s after the build, same checks).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

WORKLOADS=(fig3_sweep scale_4096 whatif_replay_1k whatif_analytic_10k)
# More loopback sockets than this in TIME_WAIT and a what-if workload waits:
# every request is a new connection, and a host short of ephemeral ports
# fails requests for reasons that have nothing to do with the code.
TIME_WAIT_LIMIT=15000

selected=()
pass=()
while (($#)); do
  case "$1" in
    --workload) selected+=("$2"); shift 2 ;;
    --seed | --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
    --smoke) pass+=("$1"); shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
((${#selected[@]})) || selected=("${WORKLOADS[@]}")

# The driver sets CARGO_TARGET_DIR (relative to the checkout root, which is
# the working directory from here on); by hand the build goes beside the
# root workspace's own target directory without touching it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/numagap-perf"
out="$CARGO_TARGET_DIR/out"

commit=$(git rev-parse --short HEAD 2>/dev/null || echo none)
echo "# host: nproc $(nproc), kernel $(uname -r), $(rustc -V), commit $commit"

loopback_time_wait() {
  # /proc/net/tcp: local address 0100007F is 127.0.0.1, state 06 is TIME_WAIT.
  awk 'NR > 1 && $4 == "06" && $2 ~ /^0100007F:/' /proc/net/tcp 2>/dev/null | wc -l
}

status=0
for workload in "${selected[@]}"; do
  if [[ $workload == whatif_* ]]; then
    waited=0
    while (($(loopback_time_wait) > TIME_WAIT_LIMIT)); do
      if ((waited >= 70)); then
        echo "run.sh: more than $TIME_WAIT_LIMIT loopback sockets still in TIME_WAIT; not starting $workload" >&2
        exit 3
      fi
      sleep 5
      waited=$((waited + 5))
    done
  fi
  # The program under test prints its own tables to stdout (the sweeps do);
  # the report starts at the marker line, and only the report is passed on.
  "$bin" --workload "$workload" --out "$out" ${pass[@]+"${pass[@]}"} |
    sed -n '/^==== numagap-perf report ====$/,$p' || status=$?
done
exit "$status"
