#!/usr/bin/env bash
# Tier-1 verification plus a sanitizer pass over the simulator tests.
#
#   tools/check.sh          # full check: plain build + ctest, then
#                           # ASan/UBSan, then TSan
#   tools/check.sh --fast   # plain build + ctest only
#   tools/check.sh --fuzz   # full check, then an extended differential
#                           # fuzz run (vpmem_cli fuzz, 20k cases) and a
#                           # fault-plan differential leg (5k cases)
#
# The sanitizer pass rebuilds into build-asan/ with -fsanitize=address,undefined
# (VPMEM_SANITIZE=ON) and reruns the sim + obs + check test binaries, which
# exercise the engine's typed event sinks (attach/detach, copies that start
# without sinks, the per-step event batch), the sinks that hold raw
# pointers into a run (Tracer, ConflictAttribution, Timeline, EventLog)
# and the reference model's event-log scans; the timeline, invariants and
# cross-validation tests, which run those sinks from trace, check and the
# integration layer; the X-MP and triad-experiment tests, which drive the
# engine's live-port list and the kernel driver's strip cursor; and the
# util JSON and journal tests, which cover the single-buffer JSON writer
# and its stream flushes; and the CLI argv contract (exec_cli_args_test),
# which drives a sanitized vpmem_cli through every subcommand's parser.
# exec_cli_campaign_test stays out: its 4-worker sandbox case hangs in a
# forked child under ASan.
#
# The TSan pass rebuilds into build-tsan/ with -fsanitize=thread
# (VPMEM_SANITIZE_THREAD=ON) and runs `ctest -LE fork`: everything except
# the fork-labelled suites (the sandbox plumbing and the two CLI
# end-to-end tests — TSan's interceptors do not survive fork()).  The
# executor, worker pool, journal writer, sharded fuzzer, and metrics
# merging all get their race coverage here via the in-process suites.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-}"

echo "== tier 1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== bench telemetry: perf_sim_engine -> BENCH_perf_sim_engine.json =="
# Run from the repo root; the vpmem.bench/1 document it writes there is a
# local artifact (.gitignore excludes BENCH_*.json), not a committed
# baseline.  The gate below fails on an empty benchmarks array (the
# regression this guards against: a reporter change silently dropping rows).
./build/bench/perf_sim_engine >/dev/null
python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_perf_sim_engine.json"))
if doc.get("schema") != "vpmem.bench/1":
    sys.exit(f"BENCH_perf_sim_engine.json: bad schema {doc.get('schema')!r}")
rows = doc.get("benchmarks", [])
if len(rows) < 3:
    sys.exit(f"BENCH_perf_sim_engine.json: only {len(rows)} benchmark entries (need >= 3)")
for row in rows:
    if not row.get("name") or "real_time" not in row:
        sys.exit(f"BENCH_perf_sim_engine.json: malformed entry {row!r}")
names = {row["name"].split("/")[0] for row in rows}
if "bm_step_traced" not in names:
    sys.exit("BENCH_perf_sim_engine.json: tracer-overhead rows (bm_step_traced) missing")
print(f"BENCH_perf_sim_engine.json: {len(rows)} entries ok")
EOF

if [[ "$mode" == "--fast" ]]; then
  echo "== done (fast mode: sanitizer pass skipped) =="
  exit 0
fi

echo "== sanitizer pass: ASan + UBSan on sim/obs/check tests and the CLI argv contract =="
cmake -B build-asan -S . -DVPMEM_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$jobs" --target \
  sim_config_test sim_memory_system_test sim_steady_state_test sim_run_test \
  sim_pattern_test sim_event_buffer_test sim_fault_test sim_checkpoint_test \
  obs_metrics_test \
  obs_report_test obs_timer_test obs_attribution_test obs_tracer_test \
  check_reference_model_test check_differential_fuzz_test check_replay_test \
  check_fault_plan_fuzz_test check_invariants_test \
  trace_timeline_test integration_cross_validation_test \
  xmp_machine_test xmp_kernels_test xmp_multitask_test core_triad_experiment_test \
  util_json_test util_journal_test exec_cli_args_test
ctest --test-dir build-asan --output-on-failure -j "$jobs" -R \
  '^(sim_|obs_|check_reference_model|check_differential_fuzz|check_replay|check_fault_plan_fuzz|check_invariants|trace_timeline|integration_cross_validation|xmp_machine|xmp_kernels|xmp_multitask|core_triad_experiment|util_json|util_journal|exec_cli_args)'

echo "== sanitizer pass: TSan on everything but the fork-labelled suites =="
cmake -B build-tsan -S . -DVPMEM_SANITIZE_THREAD=ON >/dev/null
cmake --build build-tsan -j "$jobs"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir build-tsan --output-on-failure -j "$jobs" -LE fork

if [[ "$mode" == "--fuzz" ]]; then
  echo "== extended differential fuzz: 20k cases =="
  # A different seed than the ctest runs, so this pass explores new
  # configurations on every harness change; still deterministic.
  ./build/examples/vpmem_cli fuzz 20000 --seed 0x20250807
  echo "== fault-plan differential fuzz: 5k cases =="
  # Random timed fault plans (both degradation policies, all six event
  # kinds): simulator and reference model must agree event-for-event.
  ./build/examples/vpmem_cli fuzz 5000 --fault-plans --seed 0x20260807
fi

echo "== all checks passed =="
