#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite, then the
# Table I task-overhead benchmark in JSON mode. Usage:
#   scripts/tier1.sh [--sanitize] [--tsan] [--bench-smoke] [--chaos] [build-dir]
#
# A failed build stops the run at once. Every other check is a gate: a
# failing gate is recorded and the remaining gates and blocks still run, so
# one failure never hides another. The run ends with the list of failed
# gates and exits 1 if there is any.
#
# --sanitize additionally builds an ASan+UBSan tree (build-asan) and runs
# the fault-injection, checkpoint, eviction and transfer tests under it —
# the error and recovery paths are where lifetime bugs would hide. The
# suites that leak nothing run with LeakSanitizer on: the cudasim stream
# and graph suites (a destroyed platform releases every allocation it
# still owns; graph launches move payload bodies into the DES), the graph
# backend suite, and the checkpoint, deadline, integrity and recovery
# suites (a finalized context is released).
#
# --tsan additionally builds a ThreadSanitizer tree (build-tsan) and runs
# the parallel-submission, fast-path, fault-injection, concurrency-API and
# stream/event tests under it — the submission combiner (DESIGN.md §11),
# raw-thread submission under the context lock and the lock-free event
# query are where data races would hide.
#
# --bench-smoke additionally runs every --json benchmark once and diffs the
# set of JSON record keys against the checked-in BENCH_*.json baselines —
# a renamed or dropped counter fails fast, without pinning the (noisy)
# values themselves. bench_chaos, bench_table2_reduction and
# bench_fig3_oom_cholesky report simulated values only, so their output
# must match BENCH_chaos.json, BENCH_table2.json and BENCH_fig3.json byte
# for byte: any change to what the recovery ladder does under its fault
# sweeps, to the transfer-planner ablation or to eviction fails the run.
# The text-only figure benches (Figs. 8-11 and both ablations) print
# simulated values only as well, so their stdout must match BENCH_fig8.txt,
# BENCH_fig9.txt, BENCH_fig10.txt, BENCH_fig11.txt, BENCH_ablation_heft.txt
# and BENCH_ablation_stream_pool.txt byte for byte. bench_fig7 prints
# wall-clock times and is not diffed. --bench-smoke also runs perfbench's
# taskbench_random (seed 3, traced) and fails when alloc.per_task, an exact
# work counter, exceeds 1.2.
#
# --chaos additionally runs a seeded fault-injection soak: the checkpoint,
# fault-injection and integrity (silent-corruption) suites loop over
# distinct seeds until the wall-clock budget (CHAOS_BUDGET seconds, default
# 60) is spent. Seeds are printed so a failure reproduces with
# CHAOS_SEED=<n>.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize=0
tsan=0
bench_smoke=0
chaos=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --chaos) chaos=1 ;;
    *)
      echo "usage: scripts/tier1.sh [--sanitize] [--tsan] [--bench-smoke] [--chaos] [build-dir]" >&2
      exit 2
      ;;
  esac
  shift
done
build="${1:-$repo/build}"
jobs="$(nproc 2>/dev/null || echo 4)"

failed=()
fail_gate() {
  echo "tier1: gate failed: $1" >&2
  failed+=("$1")
}
# Runs one gate: "$@" is the check. A failure is recorded, not fatal.
gate() {
  local name="$1"
  shift
  "$@" || fail_gate "$name"
}

cmake -S "$repo" -B "$build"
cmake --build "$build" -j "$jobs"
# Engine entry points live in submit.{hpp,cpp} only (DESIGN.md §13); a
# builder header referencing one is structural drift and fails the run.
gate "builder drift lint" "$repo/scripts/check_builder_drift.sh"
# Wall-clock timeout: the suite exercises hang injection and recovery; if a
# regression ever wedges a real (non-virtual) wait, the run fails loudly
# instead of hanging CI. Normal runs finish in seconds.
gate "ctest" timeout --signal=KILL "${TIER1_CTEST_TIMEOUT:-600}" \
  ctest --test-dir "$build" --output-on-failure -j "$jobs"
gate "bench_table1_task_overhead --json" \
  "$build/bench/bench_table1_task_overhead" --json
gate "bench_fig3_oom_cholesky --json" \
  "$build/bench/bench_fig3_oom_cholesky" --json

# Sorted unique JSON object keys of a record stream — the schema, not the
# values.
json_keys() {
  grep -o '"[A-Za-z_][A-Za-z_0-9]*"[[:space:]]*:' "$1" | tr -d ' :' | sort -u
}

# Diffs `out` against `baseline`: the JSON key set only for the (noisy,
# wall-clock) Table I bench, byte for byte for every other bench.
diff_output() {
  local bench="$1" baseline="$2" out="$3" diff_file="$4"
  if [[ "$bench" != bench_table1_task_overhead ]]; then
    if ! diff "$baseline" "$out" > "$diff_file"; then
      echo "bench-smoke: $bench output differs from $(basename "$baseline"):" >&2
      cat "$diff_file" >&2
      return 1
    fi
  elif ! diff <(json_keys "$baseline") <(json_keys "$out") > "$diff_file"; then
    echo "bench-smoke: $bench JSON keys drifted from $(basename "$baseline"):" >&2
    cat "$diff_file" >&2
    return 1
  fi
}

# Task-overhead guard (Table I): the submission pipeline must not slow the
# per-task cost. Compares the aggregate mean_us_per_task of this run
# against the checked-in baseline; fails on a >10% regression. Aggregating
# over all topology/device/thread records absorbs per-record noise while
# still catching a systematic slowdown of the submission path.
mean_us() {
  grep -o '"mean_us_per_task"[[:space:]]*:[[:space:]]*[0-9.]*' "$1" |
    awk -F: '{ sum += $2; n += 1 } END { if (n) printf "%.6f", sum / n }'
}
task_overhead_guard() {
  local base_us new_us
  base_us="$(mean_us "$repo/BENCH_table1.json")"
  new_us="$(mean_us "$1")"
  echo "bench-smoke: µs/task aggregate baseline=$base_us current=$new_us"
  if ! awk -v b="$base_us" -v n="$new_us" \
      'BEGIN { exit !(b > 0 && n <= b * 1.10) }'; then
    echo "bench-smoke: task overhead regressed >10% vs BENCH_table1.json" \
         "(baseline ${base_us}µs/task, current ${new_us}µs/task)" >&2
    return 1
  fi
}

# Allocation guard: heap allocations per task are a deterministic work
# counter, so they are gated exactly. perfbench's taskbench_random (seed 3,
# traced) must stay at or below 1.2 allocations per task.
alloc_guard() {
  local per_task
  per_task="$(cd "$repo" && python3 perfbench/run.py --workload taskbench_random \
      --seed 3 --seconds 1 --trace 1 2>/dev/null | tail -n 1 |
    python3 -c 'import json, sys
print(json.load(sys.stdin)["metrics"]["alloc.per_task"]["value"])')" ||
    return 1
  echo "bench-smoke: alloc.per_task=$per_task (taskbench_random seed 3, limit 1.2)"
  if ! awk -v a="$per_task" 'BEGIN { exit !(a <= 1.2) }'; then
    echo "bench-smoke: alloc.per_task $per_task exceeds 1.2" >&2
    return 1
  fi
}

if [[ "$bench_smoke" == 1 ]]; then
  smoke_dir="$(mktemp -d)"
  trap 'rm -rf "$smoke_dir"' EXIT
  for pair in \
    "bench_table1_task_overhead:BENCH_table1.json" \
    "bench_fig3_oom_cholesky:BENCH_fig3.json" \
    "bench_table2_reduction:BENCH_table2.json" \
    "bench_chaos:BENCH_chaos.json" \
    "bench_fig8_cholesky:BENCH_fig8.txt" \
    "bench_fig9_miniweather_scaling:BENCH_fig9.txt" \
    "bench_fig10_miniweather_graphs:BENCH_fig10.txt" \
    "bench_fig11_fhe_dot:BENCH_fig11.txt" \
    "bench_ablation_heft:BENCH_ablation_heft.txt" \
    "bench_ablation_stream_pool:BENCH_ablation_stream_pool.txt"; do
    bench="${pair%%:*}"
    baseline="$repo/${pair##*:}"
    # A .json baseline is diffed against the --json output, a .txt one
    # against the plain stdout.
    ext="${baseline##*.}"
    out="$smoke_dir/$bench.$ext"
    echo "bench-smoke: $bench"
    flags=()
    [[ "$ext" == json ]] && flags=(--json)
    if ! "$build/bench/$bench" "${flags[@]}" > "$out"; then
      fail_gate "bench-smoke $bench run"
      continue
    fi
    gate "bench-smoke $bench vs ${pair##*:}" \
      diff_output "$bench" "$baseline" "$out" "$smoke_dir/$bench.diff"
  done
  echo "bench-smoke: JSON schemas and byte-for-byte outputs checked" \
       "(bench_chaos, bench_table2_reduction, bench_fig3_oom_cholesky" \
       "and the Figs. 8-11 and ablation text outputs)"
  if [[ -s "$smoke_dir/bench_table1_task_overhead.json" ]]; then
    gate "bench-smoke Table I µs/task guard" \
      task_overhead_guard "$smoke_dir/bench_table1_task_overhead.json"
  fi
  gate "bench-smoke alloc.per_task guard" alloc_guard
fi

if [[ "$chaos" == 1 ]]; then
  budget="${CHAOS_BUDGET:-60}"
  deadline=$((SECONDS + budget))
  seed="${CHAOS_SEED:-1}"
  rounds=0
  # The suites are already seeded internally (fault schedules are part of
  # each test); gtest_shuffle varies the interleaving per round so the soak
  # explores pool-recycling and ordering interactions, deterministically
  # per printed seed. The virtual-time DES makes each round cheap; the
  # watchdog converts any hang into a diagnostic failure well inside the
  # budget. The soak stops at its first failing round.
  # The deadline suite adds the stall soak: it carries its own seeded hang
  # schedules (permanent and transient stalls, backpressure, cancellation);
  # shuffled ordering varies pool recycling across rounds.
  chaos_failed=0
  while (( SECONDS < deadline && chaos_failed == 0 )); do
    echo "chaos: round $rounds (seed $seed, $((deadline - SECONDS))s left)"
    for suite in test_checkpoint test_fault_injection test_integrity \
                 test_deadline; do
      if ! "$build/tests/$suite" \
          --gtest_shuffle --gtest_random_seed="$((seed % 30000))" \
          --gtest_brief=1; then
        fail_gate "chaos $suite (CHAOS_SEED=$seed)"
        chaos_failed=1
      fi
    done
    seed=$((seed + 1))
    rounds=$((rounds + 1))
  done
  echo "chaos: $rounds rounds completed within ${budget}s budget"
fi

# Builds `targets` in the sanitizer tree `dir` configured with `flag`, then
# runs each target as its own gate under `env_vars`. A failed sanitizer
# build is one recorded gate and skips that tree's runs.
sanitizer_tier() {
  local name="$1" dir="$2" flag="$3" env_vars="$4"
  shift 4
  if ! { cmake -S "$repo" -B "$dir" "$flag" &&
         cmake --build "$dir" -j "$jobs" --target "$@"; }; then
    fail_gate "$name build"
    return 0
  fi
  local t
  for t in "$@"; do
    gate "$name $t" env $env_vars "$dir/tests/$t"
  done
}

if [[ "$sanitize" == 1 ]]; then
  # Error and recovery paths are where lifetime bugs would hide:
  #  - test_submit_pipeline: observer records cross the failure and
  #    cancellation paths (DESIGN.md §13); emission after rollback is where
  #    a dangling dep record would hide.
  #  - test_transfer: chunked, chained and coalesced copies write through
  #    raw segment offsets into instance buffers (DESIGN.md §6).
  sanitizer_tier asan "$repo/build-asan" -DREPRO_SANITIZE=ON \
    "ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1" \
    test_fault_injection test_eviction test_mem_engine test_submit_pipeline \
    test_transfer
  # Leaks on:
  #  - test_cudasim_stream: a platform destroyed with frees still pending,
  #    or buffers never freed, must release their host backing.
  #  - test_checkpoint, test_deadline, test_integrity, test_recovery_ladder:
  #    finalize() must drop the requeue closures of the checkpoint log and
  #    the deadline monitor, which hold the context state. test_deadline
  #    also holds cancellation to never leaking or double-releasing pinned
  #    instances (DESIGN.md §12), and test_recovery_ladder covers every rung
  #    of the ladder, each failure source with and without checkpointing
  #    (DESIGN.md §5).
  #  - test_cudasim_graph, test_graph_ctx: one lowering moves payload bodies
  #    between graph templates, exec graphs and the DES (DESIGN.md §1).
  sanitizer_tier asan-leaks "$repo/build-asan" -DREPRO_SANITIZE=ON \
    "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1" \
    test_cudasim_stream test_checkpoint test_deadline test_integrity \
    test_recovery_ladder test_cudasim_graph test_graph_ctx
fi

if [[ "$tsan" == 1 ]]; then
  #  - test_deadline: parallel submission racing backpressure, cancellation
  #    and restart.
  #  - test_parallel_submit: the combiner's slot publication, hand-off and
  #    per-request exception capture across all four builders.
  #  - test_submit_pipeline: combined submissions around observer attach
  #    and detach — where a race between emission and the combiner would
  #    hide.
  #  - test_concurrency_api: raw threads submitting without
  #    parallel_submit, serialized only by the context lock.
  #  - test_cudasim_stream: lock-free event queries racing node recycling;
  #    a handle whose node was reused must read as completed, never as the
  #    new op's state.
  sanitizer_tier tsan "$repo/build-tsan" -DREPRO_TSAN=ON \
    "TSAN_OPTIONS=halt_on_error=1" \
    test_parallel_submit test_fastpath test_fault_injection test_deadline \
    test_submit_pipeline test_concurrency_api test_cudasim_stream
fi

if (( ${#failed[@]} > 0 )); then
  echo "tier1: ${#failed[@]} gate(s) failed:" >&2
  printf '  - %s\n' "${failed[@]}" >&2
  exit 1
fi
echo "tier1: all gates passed"
