// The benchmark's five closed-loop workloads. Each rep builds a fresh
// platform and context (set-up), then times submission plus finalize()
// from one caller (or from parallel_submit workers), and reads the public
// counters afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cudastf/cudastf.hpp"
#include "trace.hpp"

namespace perfbench {

/// Public counters read after finalize().
struct counters {
  cudastf::backend_stats stats;
  std::uint64_t events_pruned = 0;
  std::uint64_t fast_path_submits = 0;
  std::uint64_t ops_completed = 0;  ///< cudasim platform::ops_completed()
  std::uint64_t nodes_pooled = 0;   ///< cudasim platform::nodes_pooled()
};

struct rep_out {
  double setup_s = 0.0;  ///< platform + context + data registration + warm-up
  double run_s = 0.0;    ///< submission + finalize(), host seconds
  double sim_s = 0.0;    ///< platform::now() after finalize()
  std::uint64_t tasks = 0;     ///< tasks submitted in the timed region
  std::uint64_t failures = 0;  ///< error_report::failures_total
  std::uint64_t allocs = 0;    ///< heap allocations in the timed region
  std::size_t batches = 0;  ///< latency samples: one per batch of submissions
  double batch_p50 = 0.0;   ///< median host µs per task over the rep's batches
  double batch_p90 = 0.0;
  std::uint64_t chains_intact = 0;  ///< recovery_faults: chains equal to the fault-free run
  counters c;
  layer_seconds self{};  ///< per-layer self time (traced reps only)
  std::string error;     ///< the rep's own output check; empty when it passed
};

struct rep_env {
  tracer* tr = nullptr;  ///< non-null: record spans (single submitting thread)
  std::vector<double>* batch_us = nullptr;  ///< receives µs per task per batch
  int threads = 1;       ///< submitting threads (taskbench_mt only)
};

class workload {
 public:
  virtual ~workload() = default;
  /// One rep: set-up, then the timed region, then counter reads.
  virtual rep_out rep(const rep_env& env) = 0;
  /// Correctness check on a compute-enabled variant, run outside any timed
  /// region. Returns an empty string when the outputs are correct.
  virtual std::string check() = 0;
  /// Submitting threads of the timed reps.
  virtual int threads() const { return 1; }
  /// A hash of the inputs drawn from the seed (graph, sizes, fault schedule).
  virtual std::uint64_t fingerprint() const = 0;
};

const std::vector<std::string>& workload_names();
/// Builds the named workload's inputs from `seed`; nullptr for an unknown
/// name.
std::unique_ptr<workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
