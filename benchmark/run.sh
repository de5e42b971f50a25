#!/usr/bin/env bash
# Builds the benchmark (Release) and runs it.
#
#   benchmark/run.sh                      every workload, one process each,
#                                         then a summary table
#   benchmark/run.sh --trace              the same, untraced and traced, plus
#                                         the tracing overhead per workload
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                         one run; the last stdout line is
#                                         the run's JSON result
#   benchmark/run.sh --selftest           measurement self-test (stub replica)
#
# Results go to .bench_out/ (NAME_seedN[_traced].json, trace_NAME.json); the
# build goes to $CARGO_TARGET_DIR or .bench_build/, both at the repository
# root. Exit status is non-zero if the build fails or any run's outputs are
# incorrect.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"

if [[ ! -f "$root/CMakeLists.txt" || ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: the repository sources are not next to benchmark/" >&2
  exit 2
fi

workload=""
seed=1
seconds=16
trace=""
selftest=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --selftest) selftest=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
out="$root/.bench_out"
{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build" --target mrp_bench -j "$(nproc)" >/dev/null
} >&2
bin="$build/mrp_bench"

if [[ $selftest == 1 ]]; then
  exec "$bin" --selftest
fi

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "${trace:-0}" --out "$out"
fi

# Every workload, each in its own process. ring_failover is the fault run
# (ring_echo plus a permanent kill of one acceptor); it is not a gated
# workload because requests fail during the outage it measures.
status=0
modes=(0)
[[ "$trace" == 1 ]] && modes=(0 1)
for w in ring_echo kv_read kv_write dlog_append ring_failover; do
  for t in "${modes[@]}"; do
    echo "=== $w (trace $t)"
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
      --out "$out" | grep -v '^{' || status=1
  done
done

python3 - "$out" "$seed" "${trace:-0}" <<'EOF'
import json, sys
out, seed, traced = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
workloads = ["ring_echo", "kv_read", "kv_write", "dlog_append", "ring_failover"]
load = lambda w, suffix="": json.load(open(f"{out}/{w}_seed{seed}{suffix}.json"))
print("\nsummary (seed %s)" % seed)
names = list(load(workloads[0])["end_to_end"]) + ["p99_ms", "failed_frac", "outage_s"]
print("%-14s" % "workload" + "".join("%14s" % n for n in names) + "  correct")
for w in workloads:
    r = load(w)
    m = {**r["end_to_end"], **r["diagnostics"]}
    print("%-14s" % w + "".join("%14.5g" % m[n]["value"] if m[n]["value"] is not None
                               else "%14s" % "-" for n in names)
          + "  " + ("yes" if r["correct"] else "NO"))
if traced:
    print("\ntracing overhead (traced minus untraced)")
    for w in workloads:
        a, b = load(w)["end_to_end"], load(w, "_traced")["end_to_end"]
        print("%-14s peak_ops_s %+10.0f (%+.1f%%)   p50_ms %+8.4f (%+.1f%%)" % (
            w, b["peak_ops_s"]["value"] - a["peak_ops_s"]["value"],
            100 * (b["peak_ops_s"]["value"] / a["peak_ops_s"]["value"] - 1),
            b["p50_ms"]["value"] - a["p50_ms"]["value"],
            100 * (b["p50_ms"]["value"] / a["p50_ms"]["value"] - 1)))
    print("trace files: %s/trace_<workload>.json (open in ui.perfetto.dev "
          "or chrome://tracing)" % out)
EOF
exit $status
