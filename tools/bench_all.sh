#!/usr/bin/env bash
# Runs every --json-capable benchmark harness and consolidates the
# results into one machine-readable document (BENCH_PR9.json by
# default). Usage:
#   tools/bench_all.sh [OUT.json]
# Environment:
#   BUILD=dir   build tree to take the bench binaries from (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
OUT=${1:-BENCH_PR9.json}

for b in bench_micro_kernels bench_table1_gates bench_incremental_sta \
         bench_service_qps bench_scale_sta; do
  if [[ ! -x "$BUILD/bench/$b" ]]; then
    echo "missing $BUILD/bench/$b — build the repo first" >&2
    exit 1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench_micro_kernels =="
"$BUILD/bench/bench_micro_kernels" --json "$tmp/micro_kernels.json"
echo "== bench_table1_gates =="
"$BUILD/bench/bench_table1_gates" --json "$tmp/table1_gates.json"
echo "== bench_incremental_sta =="
"$BUILD/bench/bench_incremental_sta" --json "$tmp/incremental_sta.json"
echo "== bench_incremental_sta --corners (3-corner sweep) =="
"$BUILD/bench/bench_incremental_sta" --corners \
    --json "$tmp/incremental_sta_corners.json"
echo "== bench_service_qps =="
"$BUILD/bench/bench_service_qps" --json "$tmp/service_qps.json"
echo "== bench_scale_sta (10^4 + 10^5 stages, 1 lane vs N lanes, thread sweep) =="
"$BUILD/bench/bench_scale_sta" --threads "1,2,4,$(nproc)" \
    --json "$tmp/scale_sta.json"

python3 - "$OUT" "$tmp" <<'EOF'
import json, os, sys

out, tmp = sys.argv[1], sys.argv[2]
doc = {"generated_by": "tools/bench_all.sh"}
for name in ("micro_kernels", "table1_gates", "incremental_sta",
             "incremental_sta_corners", "service_qps", "scale_sta"):
    with open(os.path.join(tmp, name + ".json")) as f:
        doc[name] = json.load(f)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote", out)
EOF
