// The recovery ladder (DESIGN.md §5 holds the rung table).
//
// Every engine is a detector: the submission drivers, the transfer
// planner, the integrity engine, checkpoint commit, the deadline monitor,
// fence() and finalize() build a `failure` and hand it to recover(), which
// alone picks the rung — retry, re-route/quarantine, epoch restart or
// poison. The helpers below are the type-erased pieces the drivers in
// submit.cpp share; none of this is touched on the fault-free fast path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"

namespace cudastf::detail {

/// One detected failure, as a detector reports it to the ladder. The rung
/// flags say which rungs the detector can honour; recover() takes the
/// first that applies.
struct failure {
  failure_kind kind = failure_kind::submission_exception;
  std::string symbol;  ///< failed op, or the data / engine that detected it
  int device = -1;
  int attempts = 1;
  std::string detail;
  /// Data the failed op writes: poisoned on the last rung.
  std::vector<data_impl_ptr> written;
  /// Upstream failure ids (cancellations: the failures that poisoned an
  /// input).
  std::vector<std::uint64_t> causes;
  /// Rung 1: re-running in place reproduces the fault-free result.
  bool retryable = false;
  /// Rung 2: the op can move off a lost device onto a survivor.
  bool reroutable = false;
  /// Rung 3: the context may roll back and replay instead of poisoning.
  bool restartable = true;
  /// The op never reached release, so its written data kept its contents
  /// generation: a restart must roll it back regardless.
  bool rollback_written = true;
  /// Runs just before the restart rung (deadline monitor: cancel every
  /// remaining wedge so the restart's quiesce cannot hang).
  std::function<void()> before_restart;
};

enum class rung : std::uint8_t { retry, reroute, restart, poison };

struct recovery {
  rung taken = rung::poison;
  std::uint64_t id = 0;  ///< recorded failure id (poison rung only)
};

/// The ladder. Quarantines a lost device, then takes the first applicable
/// rung: retry (counted in tasks_retried), re-route, epoch restart, or
/// poison — record the failure, poison `written`, count a cancellation.
recovery recover(context_state& st, failure f);

/// The failure of one logical data lost outright where it was detected
/// (mid-acquire, mid-blacklist, mid-restore, at write-back): poison only,
/// since nothing can replay from there.
failure lost_data(failure_kind kind, data_impl_ptr d, int device,
                  std::string detail);

/// Rung-1 detector for a refused backend submission (task shard or
/// coherence copy): true, with the retry counted, when nothing executed,
/// the status may clear on the same device and attempts remain.
bool retry_refused(context_state& st, const run_result& rr, int attempts,
                   int device, std::string_view symbol);

/// Drops the acquire-time pins of every dependency (a failed submission
/// never reaches release_dep, which normally unpins).
void unpin_deps(const task_dep_untyped* const* deps, std::size_t n);

/// MSI states of every instance of the given deps, captured before acquire
/// so a failed submission can be rolled back. restore() resets captured
/// instances to their old state and invalidates instances created since
/// (their fill-copy belongs to the submission being rolled back). Event
/// lists are left merged, never restored: over-synchronization is safe.
class msi_snapshot {
 public:
  void capture(const task_dep_untyped* const* deps, std::size_t n);
  void restore() const;

 private:
  struct entry {
    logical_data_impl* data;
    std::vector<std::pair<data_instance*, msi_state>> states;
  };
  std::vector<entry> entries_;
};

/// Removes blacklisted devices from `devices` in place. If that empties
/// the list, re-routes each original device onto a surviving one
/// (survivors[d % n], deduplicated) so single-device and whole-grid
/// submissions recover uniformly. Returns whether the list changed; throws
/// device_lost_error when no device in the platform survives.
bool filter_blacklisted(context_state& st, std::vector<int>& devices);

/// Outcome of run_resilient.
struct resilient_result {
  event ev;  ///< completion event (always recorded, meaningful on success)
  cudasim::sim_status status = cudasim::sim_status::success;
  bool partial = false;
  int attempts = 1;
  int device = -1;  ///< the shard's device
};

/// Submits `payload` through the backend, absorbing transient faults on the
/// retry rung under exponential virtual-time backoff. Returns on success,
/// on a partial submission (never retried: the executed prefix must not run
/// twice), on a non-transient status, or when attempts are exhausted.
resilient_result run_resilient(
    context_state& st, int device, backend_iface::channel ch,
    const event_list& ready,
    const std::function<void(cudasim::stream&)>& payload,
    std::string_view symbol);

/// Lifetime guard for failed (whole or partial) submissions: work already
/// submitted still references the dep instances asynchronously, so its
/// completion events must gate their deferred destruction and order any
/// retry's coherency copies after it. Null events are skipped.
void guard_partial(const task_dep_untyped* const* deps, std::size_t n,
                   const data_place* resolved, const event_list& evs);

}  // namespace cudastf::detail
