// End-to-end data integrity engine (DESIGN.md §10).
//
// Detects silent data corruption — seeded bit flips the simulator injects
// at kernel-output, copy-payload and at-rest sites — before it propagates.
// A reference checksum per logical data is computed asynchronously on the
// producing stream at write-release, keyed to write_version, and every
// trust boundary verifies instance bytes against it: task acquire,
// transfer-source selection, checkpoint snapshot commit and rollback
// restore, eviction write-back, prefetch refill and host evacuation. A
// mismatch invalidates the corrupt replica and repairs from another
// verified MSI sharer (replicas_repaired); with no survivor the failure
// escalates through the existing ladder — epoch restart when checkpointing
// is armed, else poison-cancel with a cause chain naming the data symbol,
// device and detection site.
//
// Fully disarmed by default: every hook gates on a single null check of
// context_state::integ, so Table 1 numbers stay within noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

#include "cudastf/data.hpp"

namespace cudasim {
class stream;
}

namespace cudastf {

struct context_state;

/// Integrity setting (ctx.integrity_options()). Checksums at every trust
/// boundary and replica repair are always on while the engine exists. The
/// engine only exists — and the submission paths only pay more than a null
/// check — once that accessor has been called.
struct integrity_config {
  /// Dual-execute every task, not just those marked .verified(): run
  /// twice, accept only when both executions agree on the bytes of every
  /// written dependency (majority vote with a third run on disagreement).
  bool verify_all_tasks = false;
};

/// FNV-1a 64 over `n` bytes.
std::uint64_t integrity_checksum(const void* p, std::size_t n);

class integrity_engine {
 public:
  /// Safe to mutate between submissions under the context lock.
  integrity_config cfg;

  /// Write-release hook (data.cpp): schedules an asynchronous checksum of
  /// the freshly written instance on the producing stream, keyed to the
  /// just-bumped write_version. The completion event joins inst.readers
  /// (frees wait for it) and d.readers_since_write (the next writer waits).
  void on_write_release(context_state& st, logical_data_impl& d,
                        data_instance& inst, const event_list& done);

  /// Synchronously verifies one instance's bytes against the reference
  /// checksum at a trust boundary. Waits for the instance's pending writes
  /// and the pending checksum body first. Without a reference for the
  /// current write_version this is trust-on-first-use: the entry is seeded
  /// from these bytes and the instance passes. Returns false on mismatch
  /// (counted, the instance is left untouched for handle_corruption).
  bool verify_instance(context_state& st, logical_data_impl& d,
                       data_instance& inst, const char* site);

  /// Recovery rung for a corrupt replica: invalidates it, then scans the
  /// other valid MSI sharers for one whose bytes verify (corrupt candidates
  /// found on the way are invalidated too). True when a verified survivor
  /// remains to re-source from (replicas_repaired); false when the corrupt
  /// instance was the last valid copy — the caller escalates.
  bool handle_corruption(context_state& st, logical_data_impl& d,
                         data_instance& inst, const char* site);

  /// Acquire-time trust boundary (data.cpp): verify/repair/refill loop for
  /// a read-mode dependency. Catches both at-rest corruption of an already
  /// valid instance and a flipped copy payload of the fill that just
  /// produced it. Throws detail::corruption_error when no valid replica
  /// survives.
  void verify_on_acquire(context_state& st, logical_data_impl& d,
                         data_instance& inst);

  /// Seeds the reference checksum from a settled host instance (data
  /// registration): without it, corruption of the very first device fill
  /// would be adopted as truth by trust-on-first-use.
  void adopt(context_state& st, logical_data_impl& d);

  /// One background scrub pass over every resident valid instance
  /// (idle-time at-rest corruption sweep). Returns the number of corrupt
  /// instances found; each is repaired in place or escalated through the
  /// recovery ladder (which poisons the data when no checkpoint can roll it
  /// back).
  std::size_t scrub(context_state& st);

 private:
  /// Checksums never run when the platform carries no real payload bytes
  /// (timing-only runs) or the data is already poisoned.
  bool armed_for(context_state& st, const logical_data_impl& d) const;
};

namespace detail {

struct resilient_result;

/// Records a data_corrupted failure, poisons the data and throws
/// corruption_error carrying symbol/device/site/write_version. The
/// submission engine catches it and escalates (epoch restart when
/// checkpointing is armed, else the poison stands and dependents cancel).
[[noreturn]] void throw_corruption(context_state& st, logical_data_impl& d,
                                   int device, const char* site);

/// Dual-execution voting (DESIGN.md §10): runs `payload` twice from the
/// same pre-state — written dependencies are snapshotted and rewound
/// between runs — and accepts only when both executions agree on every
/// written dependency's checksum. On disagreement a third run votes; with
/// no majority throws corruption_error. Synchronous (waits on the
/// backend). Each execution goes through run_resilient, so a clean
/// refusal is retried under the retry policy; one it could not absorb
/// ends the vote with the written data rewound, and its status is
/// returned for the caller's ladder. On success merges the accepted run's
/// completion events into `done`.
resilient_result run_verified(
    context_state& st, int device, const event_list& ready,
    const std::function<void(cudasim::stream&)>& payload,
    std::string_view symbol, const task_dep_untyped* const* deps,
    std::size_t n, const data_place* resolved, event_list& done);

/// RAII: declares the written dependencies' byte ranges to the simulator
/// while a task submission is in flight, so an armed kernel_output bit
/// flip lands in genuine task output. No-op unless an injector is armed.
class output_hint_guard {
 public:
  output_hint_guard(context_state& st, const task_dep_untyped* const* deps,
                    std::size_t n, const data_place* resolved);
  ~output_hint_guard();
  output_hint_guard(const output_hint_guard&) = delete;
  output_hint_guard& operator=(const output_hint_guard&) = delete;

 private:
  cudasim::platform* plat_ = nullptr;
};

}  // namespace detail

}  // namespace cudastf
