// perfbench: the repository's two-clock benchmark (see README.md).
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs closed-loop reps of one workload for --seconds, then its correctness
// check, and prints every metric by name with its unit. The last line is
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
// when any correctness check fails, 2 on bad arguments.
#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct metric {
  std::string name;
  double value;
  const char* unit;
};

/// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <class F>
double median_of(const std::vector<rep_out>& reps, F f) {
  std::vector<double> v;
  v.reserve(reps.size());
  for (const rep_out& r : reps) {
    v.push_back(f(r));
  }
  return percentile(std::move(v), 0.5);
}

double tasks_per_s(const rep_out& r) { return static_cast<double>(r.tasks) / r.run_s; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Deterministic outcome of a rep: two reps of the same inputs, traced or
/// not, must agree on all of it.
std::string outcome_json(const rep_out& r) {
  const cudastf::backend_stats& s = r.c.stats;
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"sim_s\": %.17g, \"tasks\": %" PRIu64 ", \"failures\": %" PRIu64
      ", \"ops_completed\": %" PRIu64 ", \"deps_wired\": %" PRIu64
      ", \"graph_instantiations\": %" PRIu64 ", \"graph_updates\": %" PRIu64
      ", \"graph_launches\": %" PRIu64 ", \"p2p_bytes\": %" PRIu64
      ", \"host_link_bytes\": %" PRIu64 ", \"copies_coalesced\": %" PRIu64
      ", \"broadcast_fanout\": %" PRIu64 ", \"alloc_cache_hits\": %" PRIu64
      ", \"evictions\": %" PRIu64 ", \"checkpoints_taken\": %" PRIu64
      ", \"checkpoint_bytes\": %" PRIu64 ", \"rollbacks\": %" PRIu64
      ", \"tasks_replayed\": %" PRIu64 ", \"hangs_detected\": %" PRIu64
      ", \"ops_cancelled\": %" PRIu64 ", \"chains_intact\": %" PRIu64 "}",
      r.sim_s, r.tasks, r.failures, r.c.ops_completed, s.deps_wired,
      s.graph_instantiations, s.graph_updates, s.graph_launches, s.p2p_bytes,
      s.host_link_bytes, s.copies_coalesced, s.broadcast_fanout, s.alloc_cache_hits,
      s.evictions, s.checkpoints_taken, s.checkpoint_bytes, s.rollbacks,
      s.tasks_replayed, s.hangs_detected, s.ops_cancelled, r.chains_intact);
  return buf;
}

struct run_summary {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
};

void fail(run_summary& out, const std::string& wl, const std::string& why) {
  std::printf("# %s: CHECK FAILED: %s\n", wl.c_str(), why.c_str());
  out.correct = false;
}

/// Every rep passed its own output check, and every rep of one set of
/// inputs produced the same outcome. With several submitting threads only
/// the task and failure counts must match: workers take their stream stripe
/// from the order in which they first reach the platform, so the simulated
/// timeline can differ between reps.
void check_reps(run_summary& out, const std::string& wl, const workload& w,
                const std::vector<rep_out>& reps) {
  for (const rep_out& r : reps) {
    if (!r.error.empty()) {
      fail(out, wl, r.error);
      return;
    }
    const bool same = w.threads() == 1
                          ? outcome_json(r) == outcome_json(reps.front())
                          : r.tasks == reps.front().tasks &&
                                r.failures == reps.front().failures;
    if (!same) {
      fail(out, wl, "reps of the same inputs disagree: " + outcome_json(reps.front()) +
                        " vs " + outcome_json(r));
      return;
    }
  }
}

/// Runs one rep and summarises its batch samples.
rep_out run_rep(workload& w, tracer* tr, int threads, std::vector<double>& batch_us) {
  // Capacity survives clear(), so no reallocation lands in a timed region.
  batch_us.clear();
  batch_us.reserve(1 << 15);
  rep_out r = w.rep({.tr = tr, .batch_us = &batch_us, .threads = threads});
  r.batches = batch_us.size();
  r.batch_p50 = percentile(batch_us, 0.50);
  r.batch_p90 = percentile(batch_us, 0.90);
  return r;
}

/// The reps whose throughput stands for the run: the fastest rep, or with
/// several submitting threads the fastest tenth of reps. On a shared host
/// other tenants slow a process down for seconds at a time, so a median over
/// all reps moves with how much of the run such a stretch covered: between
/// 10 s runs of taskbench_random on a 4-vCPU virtual machine, the median's
/// quartiles were 33% apart and the fastest rep's 4%. Interference only adds
/// time, so the fastest rep is the closest reading of what the code costs.
/// With several threads a rep also depends on how the threads happened to
/// overlap, and the fastest rep is sometimes one where they barely did.
std::vector<rep_out> fastest(std::vector<rep_out> reps, int threads) {
  std::sort(reps.begin(), reps.end(), [](const rep_out& a, const rep_out& b) {
    return tasks_per_s(a) > tasks_per_s(b);
  });
  reps.resize(threads > 1 ? std::max<std::size_t>(1, reps.size() / 10) : 1);
  return reps;
}

/// Untraced reps: the end-to-end metrics.
run_summary run_untraced(workload& w, const std::string& wl, double seconds) {
  run_summary out;
  std::vector<rep_out> reps;
  std::vector<double> batch_us;
  // Every rep repeats the same submissions, so batch k of one rep is batch k
  // of every other; its fastest time over the reps is its cost without
  // interference.
  std::vector<double> batch_min;
  const std::int64_t t0 = now_ns();
  double rss = 0.0;
  while (reps.size() < 10 || 1e-9 * static_cast<double>(now_ns() - t0) < seconds) {
    reps.push_back(run_rep(w, nullptr, w.threads(), batch_us));
    if (batch_min.empty()) {
      batch_min = batch_us;
    }
    for (std::size_t i = 0; i < std::min(batch_min.size(), batch_us.size()); ++i) {
      batch_min[i] = std::min(batch_min[i], batch_us[i]);
    }
    // Resident memory still creeps up over hundreds of reps, so a reading
    // at the end would depend on how many reps the host managed; read it at
    // a fixed rep instead.
    if (reps.size() == 3) {
      rss = peak_rss_mb();
    }
  }
  check_reps(out, wl, w, reps);
  std::uint64_t failures = 0;
  for (const rep_out& r : reps) {
    out.attempted += r.tasks;
    failures += r.failures;
  }
  out.failed = failures;
  const std::vector<rep_out> best = fastest(reps, w.threads());
  // With several threads, a batch's fastest time comes from a rep where the
  // threads did not contend; the fastest tenth of reps stands in for it.
  const bool threaded = w.threads() > 1;
  out.metrics = {
      {"tasks_per_s", median_of(best, tasks_per_s), "1/s"},
      {"task_us_p50",
       threaded ? median_of(best, [](const rep_out& r) { return r.batch_p50; })
                : percentile(batch_min, 0.50),
       "us"},
      {"task_us_p90",
       threaded ? median_of(best, [](const rep_out& r) { return r.batch_p90; })
                : percentile(batch_min, 0.90),
       "us"},
      {"sim_s", median_of(reps, [](const rep_out& r) { return r.sim_s; }), "s"},
      {"setup_s", median_of(reps, [](const rep_out& r) { return r.setup_s; }), "s"},
      {"peak_rss_mb", rss, "MB"},
      {"ops_ok_ratio",
       1.0 - static_cast<double>(failures) / static_cast<double>(out.attempted), "ratio"},
  };
  std::printf("# %s: %zu reps of %" PRIu64 " tasks, %zu batches per rep, %d thread(s)\n",
              wl.c_str(), reps.size(), reps.front().tasks, reps.front().batches, w.threads());
  std::printf("# %s: medians over reps: tasks_per_s %.6g, task_us_p50 %.6g, task_us_p90 %.6g\n",
              wl.c_str(), median_of(reps, tasks_per_s),
              median_of(reps, [](const rep_out& r) { return r.batch_p50; }),
              median_of(reps, [](const rep_out& r) { return r.batch_p90; }));
  std::printf("# %s outcome %s\n", wl.c_str(), outcome_json(reps.front()).c_str());
  return out;
}

/// Traced run: traced reps interleaved with untraced ones (and, for the
/// threaded workload, untraced single-thread reps), giving the per-layer
/// metrics, the tracing overhead and the threading scaling.
run_summary run_traced(workload& w, const std::string& wl, double seconds,
                       const std::string& trace_out) {
  run_summary out;
  tracer tr(/*keep_reps=*/1);
  std::vector<rep_out> traced, plain, single;
  std::vector<double> batch_us;
  const bool threaded = w.threads() > 1;
  const std::int64_t t0 = now_ns();
  while (traced.size() < 3 || 1e-9 * static_cast<double>(now_ns() - t0) < seconds) {
    traced.push_back(run_rep(w, &tr, w.threads(), batch_us));
    plain.push_back(run_rep(w, nullptr, w.threads(), batch_us));
    if (threaded) {
      single.push_back(run_rep(w, nullptr, 1, batch_us));
    }
  }
  std::vector<rep_out> all = traced;
  all.insert(all.end(), plain.begin(), plain.end());
  check_reps(out, wl, w, all);
  if (!threaded) {
    single = plain;
  } else {
    check_reps(out, wl, w, single);
  }
  for (const rep_out& r : all) {
    out.attempted += r.tasks;
    out.failed += r.failures;
  }
  if (!trace_out.empty() && !tr.write(trace_out)) {
    fail(out, wl, "cannot write trace file " + trace_out);
  }

  const rep_out& c = plain.front();
  const cudastf::backend_stats& s = c.c.stats;
  const double tasks = static_cast<double>(c.tasks);
  auto self = [&](std::initializer_list<layer> ls) {
    return median_of(traced, [&](const rep_out& r) {
      double sum = 0.0;
      for (layer l : ls) {
        sum += r.self[static_cast<std::size_t>(l)];
      }
      return sum;
    });
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double wired = count(s.deps_wired);
  const double pruned = count(c.c.events_pruned);
  const double tps_plain = median_of(plain, tasks_per_s);
  out.metrics = {
      {"cudastf.submit_s", self({layer::task, layer::parallel_for}), "s"},
      {"cudastf.fence_s", self({layer::fence}), "s"},
      {"cudastf.finalize_s", self({layer::finalize}), "s"},
      {"cudasim.drain_s", self({layer::synchronize}), "s"},
      {"threading.submit_s", self({layer::parallel_submit}), "s"},
      {"app.self_s", self({layer::app}), "s"},
      {"alloc.per_task", median_of(plain, [](const rep_out& r) {
         return static_cast<double>(r.allocs) / static_cast<double>(r.tasks);
       }), "count"},
      {"events.deps_wired_per_task", wired / tasks, "count"},
      {"events.pruned_ratio", pruned + wired > 0 ? pruned / (pruned + wired) : 0.0, "ratio"},
      {"cudasim.ops_per_task", count(c.c.ops_completed) / tasks, "count"},
      {"cudasim.nodes_pooled", count(c.c.nodes_pooled), "count"},
      {"graph.instantiations", count(s.graph_instantiations), "count"},
      {"graph.updates", count(s.graph_updates), "count"},
      {"graph.launches", count(s.graph_launches), "count"},
      {"graph.reuse_ratio",
       s.graph_launches > 0
           ? 1.0 - count(s.graph_instantiations) / count(s.graph_launches)
           : 0.0,
       "ratio"},
      {"threading.scaling", tps_plain / median_of(single, tasks_per_s), "ratio"},
      {"threading.fast_path_ratio", count(c.c.fast_path_submits) / tasks, "ratio"},
      {"transfer.p2p_bytes", count(s.p2p_bytes), "B"},
      {"transfer.host_link_bytes", count(s.host_link_bytes), "B"},
      {"transfer.copies_coalesced", count(s.copies_coalesced), "count"},
      {"transfer.broadcast_fanout", count(s.broadcast_fanout), "count"},
      {"mem.alloc_cache_hits", count(s.alloc_cache_hits), "count"},
      {"mem.evictions", count(s.evictions), "count"},
      {"recovery.checkpoints_taken", count(s.checkpoints_taken), "count"},
      {"recovery.checkpoint_bytes", count(s.checkpoint_bytes), "B"},
      {"recovery.rollbacks", count(s.rollbacks), "count"},
      {"recovery.tasks_replayed", count(s.tasks_replayed), "count"},
      {"recovery.hangs_detected", count(s.hangs_detected), "count"},
      {"recovery.ops_cancelled", count(s.ops_cancelled), "count"},
      {"recovery.chains_intact", count(c.chains_intact), "count"},
      {"trace.overhead_ratio", 1.0 - median_of(traced, tasks_per_s) / tps_plain, "ratio"},
  };
  std::printf("# %s: %zu traced reps, %zu untraced reps%s\n", wl.c_str(), traced.size(),
              plain.size(), threaded ? " (+ as many single-thread reps)" : "");
  std::printf("# %s outcome %s\n", wl.c_str(), outcome_json(c).c_str());
  return out;
}

run_summary run_one(const std::string& wl, std::uint64_t seed, double seconds, bool trace,
                    const std::string& trace_out) {
  auto w = make_workload(wl, seed);
  std::printf("# %s inputs %016" PRIx64 " (seed %" PRIu64 ")\n", wl.c_str(), w->fingerprint(),
              seed);
  run_summary out = trace ? run_traced(*w, wl, seconds, trace_out)
                          : run_untraced(*w, wl, seconds);
  const std::string why = w->check();
  if (!why.empty()) {
    fail(out, wl, why);
  }
  for (const metric& m : out.metrics) {
    std::printf("%-18s %-28s %-16.10g %s\n", wl.c_str(), m.name.c_str(), m.value, m.unit);
  }
  return out;
}

void print_result(const run_summary& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name|all> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Host timings depend on where the heap and mappings land: with address
  // space randomisation on, the same run is bimodal (one workload's
  // tasks_per_s moved by 1.6x between launches). Re-exec once with it off,
  // so that every run measures one layout; if that is refused, go on as is.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  // A fixed mmap threshold stops glibc from raising it after the first large
  // free, which would keep each rep's big buffers on the heap: resident
  // memory would then grow over the first hundred-odd reps, and the timed
  // regions of those reps would pay the page faults.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::string wl;
  std::string trace_out;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      wl = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage(argv[0]);
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || wl.empty() || seconds <= 0 || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  std::vector<std::string> names = {wl};
  if (wl == "all") {
    names = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(), wl) ==
             workload_names().end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", wl.c_str());
    return 2;
  }

  run_summary total;
  for (const std::string& n : names) {
    std::string path = trace_out;
    if (!path.empty() && names.size() > 1) {
      path += "." + n + ".json";
    }
    run_summary r = run_one(n, seed, seconds, trace == 1, path);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (metric& m : r.metrics) {
      if (names.size() > 1) {
        m.name = n + "." + m.name;
      }
      total.metrics.push_back(std::move(m));
    }
  }
  std::fflush(stdout);
  print_result(total);
  return total.correct ? 0 : 1;
}
