#!/usr/bin/env bash
# Builder-drift lint (DESIGN.md §13): the cross-cutting engines — fault
# retry and poison propagation, checkpoint replay recording, integrity
# verification, deadline arming, overload admission — attach to the shared
# submission pipeline in submit.{hpp,cpp}. The per-construct builder
# headers lower to an op_desc and hooks and must never call an engine
# entry point directly; a reference from a builder header means an engine
# is being re-inlined per builder, the exact drift this refactor removed.
#
# The same lint holds the engines to the one recovery ladder (DESIGN.md §5):
# an engine source detects a failure and hands it to recover(); calling the
# restart rung or the poison rung itself (or their predecessors) would fork
# the rung decision again.
#
# And it holds every structural entry point to the one context lock
# (DESIGN.md §11): it is taken only through detail::structural_lock and
# the submission combiner, so no site can take it another way.
#
# Exit 0 when clean, 1 with a file:line listing per violation.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
inc="$repo/src/cudastf/include/cudastf"

builders=(
  "$inc/task.hpp"
  "$inc/parallel_for.hpp"
  "$inc/launch.hpp"
)

# Engine entry points that must only be referenced from submit.{hpp,cpp}.
banned=(
  'record_replay'
  'verify_on_acquire'
  'run_verified'
  'run_resilient'
  'fail_task'
  'cancel_if_poisoned'
  'track_submission'
  'ensure_dl'
  '\badmit\('
  'msi_snapshot'
  'unpin_deps'
  'guard_partial'
  'output_hint_guard'
  'try_epoch_restart'
  'filter_blacklisted'
  'blacklist_device'
  'reroute_device'
  'record_failure'
  'pick_heft_device'
)

status=0
for f in "${builders[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_builder_drift: missing builder header: $f" >&2
    status=1
    continue
  fi
  for pat in "${banned[@]}"; do
    if hits="$(grep -EnH "$pat" "$f")"; then
      echo "check_builder_drift: engine entry point '$pat' referenced from a builder header (route it through submit.{hpp,cpp}):" >&2
      echo "$hits" >&2
      status=1
    fi
  done
done

src="$repo/src/cudastf"
engines=(
  "$src/fault.cpp"
  "$src/checkpoint.cpp"
  "$src/integrity.cpp"
  "$src/deadline.cpp"
  "$src/context.cpp"
  "$inc/context.hpp"
)

# Restart rung (checkpoint_manager::try_restart), poison rung (recording a
# failure, poisoning data) and the per-engine ladders they replaced. Only
# recover() in submit.cpp may call them; the definitions themselves
# (context_state::record_failure, checkpoint_manager::try_restart) and
# clearing poison (poisoned_by = 0) are allowed.
ladder_bypass=(
  'try_epoch_restart'
  'fail_task'
  '(->|\.)try_restart\('
  '(^|[^:])record_failure\('
  'poisoned_by[[:space:]]*=[[:space:]]*[^=0[:space:]]'
)

for f in "${engines[@]}"; do
  if [[ ! -f "$f" ]]; then
    echo "check_builder_drift: missing engine source: $f" >&2
    status=1
    continue
  fi
  for pat in "${ladder_bypass[@]}"; do
    if hits="$(grep -EnH "$pat" "$f")"; then
      echo "check_builder_drift: '$pat' bypasses the recovery ladder (build a detail::failure and call recover()):" >&2
      echo "$hits" >&2
      status=1
    fi
  done
done

# The structural-lock definition (context_locks through structural_lock in
# threading.hpp) and the combiner (threading.cpp) are the only places
# allowed to touch the context lock's members.
lock_def="$inc/threading.hpp"
lock_impl="$src/threading.cpp"
def_lines="$(awk '/^class context_locks \{/ { s = NR }
                  s && /^class structural_lock \{/ { t = 1 }
                  t && /^\};/ { print s, NR; exit }' "$lock_def")"
if [[ -z "$def_lines" ]]; then
  echo "check_builder_drift: structural_lock definition not found in $lock_def" >&2
  status=1
  def_lines="0 0"
fi
read -r def_first def_last <<< "$def_lines"
lock_bypass='context_mu_|context_owner_|context_depth_|\b(try_)?lock_context\(|\bunlock_context\(|\bmt\(\)|(\bst_?|ctx\(\)|state)(\.|->)mu\b'
while IFS=: read -r file line text; do
  if [[ "$file" == "$lock_def" ]] && (( line >= def_first && line <= def_last )); then
    continue
  fi
  if [[ "$file" == "$lock_impl" ]]; then
    continue
  fi
  echo "check_builder_drift: structural lock bypassed (use detail::structural_lock):" >&2
  echo "$file:$line:$text" >&2
  status=1
done < <(grep -rEnH "$lock_bypass" "$src" --include='*.hpp' --include='*.cpp' || true)

if [[ "$status" == 0 ]]; then
  echo "check_builder_drift: builder headers, engine sources and lock sites are clean"
fi
exit "$status"
