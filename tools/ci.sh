#!/usr/bin/env bash
# Tier-1 CI gate: the labelled test suites, run twice —
#   1. plain (RelWithDebInfo, preset `default`), and
#   2. under ThreadSanitizer (preset `tsan`) to catch data races in the
#      level executor (its lanes classify and evaluate concurrently; the
#      tier1-labelled 8-lane run/update stress runs under both presets),
#      the shared memo cache, and the qwm_serve dispatch layer —
# plus a service smoke stage driving the qwm_serve daemon over both
# transports (scripted stdio exchange; TCP round with qwm_load), a
# deterministic perf-regression smoke comparing the pinned counter
# workloads of bench_micro_kernels and bench_scale_sta against
# tools/perf_budget.json, a scale smoke (full STA of a 10^5-stage
# generated design under wall-clock and RSS caps), and an
# ASan+UBSan stage (preset `asan`) that re-runs tier1 and then sweeps the
# differential QWM-vs-SPICE fuzz harness at 2000 samples with the pinned
# seed.
# Usage: tools/ci.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    *) echo "unknown flag: $arg"; exit 2 ;;
  esac
done

echo "== configure + build (default) =="
cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)"

echo "== tier1 tests (plain) =="
ctest --preset tier1

echo "== tier1 bit-exactness suites (forced scalar frame kernel) =="
# The frame-kernel dispatch picks the best backend at startup (AVX2 on
# capable hosts), so the plain run above covered that side. This pass
# pins QWM_SIMD_BACKEND=scalar and re-runs the arithmetic-contract
# suites so the portable backend's results gate CI on every host. On
# AVX2 hosts the SimdBackend/SimdSched suites additionally compare the
# two backends bitwise; on others they skip and this pass is the
# scalar coverage.
if grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  echo "host has AVX2: plain tier1 ran the AVX2 backend"
else
  echo "host has no AVX2: dispatch already scalar; re-run is a pin check"
fi
QWM_SIMD_BACKEND=scalar ctest --preset tier1 \
    -R 'SimdBackend|SimdSched|BatchFrame|FaultLadder|DepsSta|Golden'

echo "== service smoke (stdio) =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cat > "$smoke_dir/chain.sp" <<'DECK'
ci smoke chain
vdd vdd 0 3.3
vin in 0 0
mn0 s1 in 0 0 nmos W=1.5u L=0.35u
mp0 s1 in vdd vdd pmos W=3u L=0.35u
mn1 out s1 0 0 nmos W=1.5u L=0.35u
mp1 out s1 vdd vdd pmos W=3u L=0.35u
cl out 0 20f
.end
DECK
stdio_out=$(printf 'LOAD %s\nARRIVAL out\nRESIZE 0 0 2.5u\nUPDATE\nSTATS\nSHUTDOWN\n' \
    "$smoke_dir/chain.sp" | ./build/tools/qwm_serve --stdio 2>/dev/null)
echo "$stdio_out"
# Six requests -> six responses, all OK, ending with the shutdown ack.
[[ $(echo "$stdio_out" | wc -l) -eq 6 ]] || { echo "stdio smoke: expected 6 responses"; exit 1; }
[[ -z $(echo "$stdio_out" | grep -v '^OK') ]] || { echo "stdio smoke: non-OK response"; exit 1; }
[[ $(echo "$stdio_out" | tail -1) == "OK bye" ]] || { echo "stdio smoke: missing shutdown ack"; exit 1; }

echo "== service smoke (TCP: qwm_serve + qwm_load) =="
./build/tools/qwm_serve --port 0 --port-file "$smoke_dir/port" --threads 4 \
    2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do [[ -s "$smoke_dir/port" ]] && break; sleep 0.1; done
[[ -s "$smoke_dir/port" ]] || { echo "qwm_serve did not write its port"; kill "$serve_pid"; exit 1; }
./build/tools/qwm_load --port "$(cat "$smoke_dir/port")" \
    --deck "$smoke_dir/chain.sp" --clients 8 --requests 50 \
    --what-if 3 --verify --shutdown
wait "$serve_pid" || { echo "qwm_serve exited non-zero"; exit 1; }
grep -q "clean shutdown" "$smoke_dir/serve.log" || { echo "qwm_serve: no clean shutdown"; exit 1; }
echo "service smoke passed"

echo "== replicated service smoke (qwm_router: failover + reconverge) =="
# A 12-stage chain served by 3 full-design replicas with the memo cache
# on; qwm_load --verify --no-cache re-times every answered net in a
# single-process cache-off engine, so "mismatches: 0" is the
# bit-exactness gate for the routed, cached answers.
{
  echo "ci replicated smoke chain"
  echo "vdd vdd 0 3.3"
  echo "vin in 0 0"
  prev=in
  for i in $(seq 0 11); do
    out="s$((i + 1))"; [[ "$i" == 11 ]] && out=out
    echo "mn$i $out $prev 0 0 nmos W=1.5u L=0.35u"
    echo "mp$i $out $prev vdd vdd pmos W=3u L=0.35u"
    prev=$out
  done
  echo "cl out 0 20f"
  echo ".end"
} > "$smoke_dir/fleet_chain.sp"
json_field() {  # json_field <file> <key> -> value (integers only)
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$1" "$2"
}

# Phase A: restarts disabled -- killing a replica must not cost a single
# answer: no OK DEGRADED tags, no hard errors, and every answer still
# bit-identical to the engine.
./build/tools/qwm_router --replicas 3 --port 0 --port-file "$smoke_dir/router_a.port" \
    --run-dir "$smoke_dir/run_a" --deck "$smoke_dir/fleet_chain.sp" \
    --no-restart --supervise-ms 100 --suspect-after 1 --down-after 1 \
    2> "$smoke_dir/router_a.log" &
router_a=$!
for _ in $(seq 100); do [[ -s "$smoke_dir/router_a.port" ]] && break; sleep 0.1; done
[[ -s "$smoke_dir/router_a.port" ]] || { echo "qwm_router (A) did not write its port"; exit 1; }
./build/tools/qwm_load --port "$(cat "$smoke_dir/router_a.port")" \
    --deck "$smoke_dir/fleet_chain.sp" --no-load --clients 2 --requests 40 \
    --retries 2 --verify --no-cache --json > "$smoke_dir/fleet_base.json"
[[ $(json_field "$smoke_dir/fleet_base.json" mismatches) == 0 ]] \
    || { echo "replicated smoke: baseline fleet answers diverge from the engine"; exit 1; }
kill -9 "$(cat "$smoke_dir/run_a/replica1.pid")"
sleep 0.5  # let a supervisor probe pass see the corpse
./build/tools/qwm_load --port "$(cat "$smoke_dir/router_a.port")" \
    --deck "$smoke_dir/fleet_chain.sp" --no-load --clients 2 --requests 40 \
    --retries 2 --verify --no-cache --json > "$smoke_dir/fleet_kill.json"
[[ $(json_field "$smoke_dir/fleet_kill.json" degraded_ok) == 0 ]] \
    || { echo "replicated smoke: degraded answers after killing replica 1"; exit 1; }
[[ $(json_field "$smoke_dir/fleet_kill.json" hard_err) == 0 ]] \
    || { echo "replicated smoke: hard errors during the outage"; exit 1; }
[[ $(json_field "$smoke_dir/fleet_kill.json" mismatches) == 0 ]] \
    || { echo "replicated smoke: outage answers diverge from the engine"; exit 1; }
./build/tools/qwm_load --port "$(cat "$smoke_dir/router_a.port")" \
    --deck "$smoke_dir/fleet_chain.sp" --no-load --requests 1 --shutdown \
    --json > /dev/null
wait "$router_a" || { echo "qwm_router (A) exited non-zero"; exit 1; }

# Phase B: supervision on -- the restarted replica re-warms from LOAD +
# the mutation log and the fleet reconverges bit-identically.
./build/tools/qwm_router --replicas 3 --port 0 --port-file "$smoke_dir/router_b.port" \
    --run-dir "$smoke_dir/run_b" --deck "$smoke_dir/fleet_chain.sp" \
    --supervise-ms 100 --suspect-after 1 --down-after 1 \
    2> "$smoke_dir/router_b.log" &
router_b=$!
for _ in $(seq 100); do [[ -s "$smoke_dir/router_b.port" ]] && break; sleep 0.1; done
[[ -s "$smoke_dir/router_b.port" ]] || { echo "qwm_router (B) did not write its port"; exit 1; }
kill -9 "$(cat "$smoke_dir/run_b/replica1.pid")"
python3 - "$smoke_dir/router_b.port" <<'EOF' \
    || { echo "replicated smoke: fleet did not reconverge to healthy"; exit 1; }
import socket, sys, time
port = int(open(sys.argv[1]).read())
deadline = time.time() + 20
while time.time() < deadline:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        f = s.makefile("rw")
        f.write("HEALTH\n"); f.flush()
        line = f.readline()
    if "states=healthy,healthy,healthy" in line:
        sys.exit(0)
    time.sleep(0.2)
sys.exit(1)
EOF
./build/tools/qwm_load --port "$(cat "$smoke_dir/router_b.port")" \
    --deck "$smoke_dir/fleet_chain.sp" --no-load --clients 2 --requests 40 \
    --retries 2 --verify --no-cache --shutdown --json > "$smoke_dir/fleet_heal.json"
[[ $(json_field "$smoke_dir/fleet_heal.json" mismatches) == 0 ]] \
    || { echo "replicated smoke: post-restart answers diverge from the engine"; exit 1; }
[[ $(json_field "$smoke_dir/fleet_heal.json" degraded_ok) == 0 ]] \
    || { echo "replicated smoke: degraded answers after the restart"; exit 1; }
wait "$router_b" || { echo "qwm_router (B) exited non-zero"; exit 1; }
grep -q "clean shutdown" "$smoke_dir/router_b.log" \
    || { echo "qwm_router (B): no clean shutdown"; exit 1; }

# Early exit: a router whose preload fails must not leave a replica
# behind.
if ./build/tools/qwm_router --replicas 2 --run-dir "$smoke_dir/run_c" \
    --deck "$smoke_dir/no_such_deck.sp" 2> "$smoke_dir/router_c.log"; then
  echo "replicated smoke: qwm_router accepted a missing deck"; exit 1
fi
ls "$smoke_dir"/run_c/*.pid > /dev/null \
    || { echo "replicated smoke: no replica pid files in run_c"; exit 1; }
for pid_file in "$smoke_dir"/run_c/*.pid; do
  if kill -0 "$(cat "$pid_file")" 2> /dev/null; then
    echo "replicated smoke: replica $(cat "$pid_file") outlived its router"; exit 1
  fi
done
echo "replicated service smoke passed"

echo "== perf smoke (work-counter budget) =="
# Counters (Newton iterations, device evaluations, workspace growth) are
# machine-deterministic, so this gate is stable on loaded CI hosts where
# wall-clock timing is not; --counters-only skips the timed medians.
./build/bench/bench_micro_kernels --json "$smoke_dir/perf.json" \
    --counters-only --budget tools/perf_budget.json
# Scheduler, solver and arc counters of the 10^4-stage generated design
# (exact structural pins), plus the 1-lane vs 4-lane and cache on/off
# equivalence end to end: arrivals bitwise, work counts equal. The 1,4
# thread sweep re-checks both at every listed lane count.
./build/bench/bench_scale_sta --smoke --counters-only --threads 1,4 \
    --budget tools/perf_budget.json
echo "perf smoke passed"

echo "== scale smoke (10^5-stage generated design, 8 lanes) =="
# Full STA over a 10^5-stage grid through the gate-level frontend: must
# finish inside the wall-clock cap (~2 s on an idle 4-vCPU host) and
# inside a 512 MB peak-RSS ceiling (~180 MB measured) — the guard against
# accidental per-stage memory or quadratic scheduling regressions.
scale_rss_kb=$(python3 - <<'EOF'
import resource, subprocess, sys
p = subprocess.run(["./build/tools/qwm_sim", "gen:grid:100000:seed=7",
                    "--sta", "--threads", "8"],
                   stdout=subprocess.DEVNULL, timeout=120)
if p.returncode != 0:
    sys.exit(p.returncode)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
EOF
) || { echo "scale smoke: qwm_sim failed or exceeded the 120 s cap"; exit 1; }
[[ "$scale_rss_kb" -le $((512 * 1024)) ]] \
    || { echo "scale smoke: peak RSS ${scale_rss_kb} kB > 512 MB cap"; exit 1; }
echo "scale smoke passed (peak RSS ${scale_rss_kb} kB)"

if [[ "$skip_asan" == 1 ]]; then
  echo "== tier1 + fuzz under ASan/UBSan: SKIPPED (--skip-asan) =="
else
  echo "== configure + build (asan) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$(nproc)"

  echo "== tier1 tests (ASan + UBSan) =="
  ctest --preset asan-tier1

  echo "== differential fuzz sweep (2000 samples, pinned seed, ASan) =="
  # The seed is pinned so the sweep is reproducible; a failing sample
  # writes its reproducer under tests/data/repro/ (see README).
  QWM_FUZZ_SAMPLES=2000 QWM_FUZZ_SEED=20260806 \
    ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ./build-asan/tests/test_fuzz
  echo "fuzz sweep passed"
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== tier1 under TSan: SKIPPED (--skip-tsan) =="
  exit 0
fi

echo "== configure + build (tsan) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)"

echo "== tier1 tests (ThreadSanitizer) =="
ctest --preset tsan-tier1

echo "CI gate passed: tier1 clean, plain and under sanitizers."
