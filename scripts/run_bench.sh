#!/usr/bin/env bash
# Record and schema-check the simulator's JSON artifacts for one
# representative run: a Perfetto trace (spans + counters + dependency-
# edge flow arrows), the memory-pressure ledger and the host-time
# profile. Host throughput is measured by relbench (relbench/README.md),
# not here.
#
# Usage: scripts/run_bench.sh [--smoke] [--kernels] [build-dir] [out-dir]
#
# --kernels additionally runs the SIMD kernel microbenchmark
# (tools/relief_kernel_bench) and schema-checks + self-diffs its
# document; --smoke runs it at its CI size. Outputs land in out-dir
# (default bench-results/):
#   trace_CDL.json        Chrome/Perfetto trace of a CDL run
#   PRESSURE_relief.json  relief-pressure-v1 attribution ledger dump
#                         of the traced run (schema-checked)
#   HOSTPROF_CDL.json     relief-hostprof-v1 host-time attribution of
#                         the traced run (schema-checked)
#   KERNELS_relief.json   relief-kernels-v1 scalar-vs-SIMD kernel
#                         throughput (--kernels only, schema-checked)
#
# Every check runs un-piped so its exit status propagates under
# `set -e`; in particular a relief_compare breach (exit 2) or a schema
# violation (exit 1) fails this script with the same code.
set -euo pipefail

SMOKE=0
KERNELS=0
while :; do
    case "${1:-}" in
        --smoke) SMOKE=1; shift ;;
        --kernels) KERNELS=1; shift ;;
        *) break ;;
    esac
done

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

for tool in relief_sim relief_compare; do
    if [ ! -x "$BUILD_DIR/tools/$tool" ]; then
        echo "error: $BUILD_DIR/tools/$tool not found; build first:" >&2
        echo "  cmake -B $BUILD_DIR && cmake --build $BUILD_DIR -j" >&2
        exit 1
    fi
done

CHECKER="$SCRIPT_DIR/check_bench_schema.py"
if [ ! -f "$CHECKER" ]; then
    echo "error: schema checker $CHECKER is missing; refusing to" >&2
    echo "emit unvalidated artifacts" >&2
    exit 1
fi

mkdir -p "$OUT_DIR"

# CDL under RELIEF exercises forwarding, so the flow arrows carry all
# three edge categories. The same run dumps the memory-pressure
# attribution ledger, with the per-bank utilization and queue-depth
# counter tracks in the trace.
"$BUILD_DIR/tools/relief_sim" --mix CDL --policy RELIEF \
    --banked-memory --pressure-tracks \
    --trace "$OUT_DIR/trace_CDL.json" \
    --pressure-report "$OUT_DIR/PRESSURE_relief.json" \
    --host-profile "$OUT_DIR/HOSTPROF_CDL.json" \
    > "$OUT_DIR/trace_CDL.log"

python3 "$CHECKER" "$OUT_DIR/PRESSURE_relief.json"
python3 "$CHECKER" "$OUT_DIR/HOSTPROF_CDL.json"

if [ "$KERNELS" = 1 ]; then
    KERNELS_JSON="$OUT_DIR/KERNELS_relief.json"
    if [ ! -x "$BUILD_DIR/tools/relief_kernel_bench" ]; then
        echo "error: $BUILD_DIR/tools/relief_kernel_bench not found" >&2
        exit 1
    fi
    if [ "$SMOKE" = 1 ]; then
        "$BUILD_DIR/tools/relief_kernel_bench" --smoke \
            --out "$KERNELS_JSON"
    else
        "$BUILD_DIR/tools/relief_kernel_bench" --out "$KERNELS_JSON"
    fi
    python3 "$CHECKER" "$KERNELS_JSON"
    "$BUILD_DIR/tools/relief_compare" --diff "$KERNELS_JSON" \
        "$KERNELS_JSON" > /dev/null
fi

echo "bench outputs in $OUT_DIR/ (PRESSURE_relief.json," \
     "HOSTPROF_CDL.json schema-valid)"
