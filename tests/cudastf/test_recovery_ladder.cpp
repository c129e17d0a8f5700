// Characterization of the recovery ladder (DESIGN.md §5): one row per
// failure source, each run with and without checkpointing. Every row pins
// the exact error_report counters, the recovery-relevant backend counters
// and the recorded failures with their cause chains, so a change to which
// rung (retry -> re-route/quarantine -> epoch restart -> poison) handles a
// failure shows up as a precise diff instead of slipping past an
// EXPECT_GE.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

/// Everything a row pins down about one run.
struct outcome {
  std::uint64_t failures_total = 0;
  std::uint64_t tasks_retried = 0;
  std::uint64_t tasks_rerouted = 0;
  std::uint64_t tasks_cancelled = 0;
  std::uint64_t devices_blacklisted = 0;
  std::uint64_t alloc_retries = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t tasks_replayed = 0;
  std::uint64_t quarantines = 0;
  /// Recorded failures in order: "#id kind 'symbol' <causes [poisoned]".
  std::string failures = {};
  bool operator==(const outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const outcome& o) {
  return os << "{failures_total=" << o.failures_total
            << " tasks_retried=" << o.tasks_retried
            << " tasks_rerouted=" << o.tasks_rerouted
            << " tasks_cancelled=" << o.tasks_cancelled
            << " devices_blacklisted=" << o.devices_blacklisted
            << " alloc_retries=" << o.alloc_retries
            << " rollbacks=" << o.rollbacks
            << " tasks_replayed=" << o.tasks_replayed
            << " quarantines=" << o.quarantines << " failures=\""
            << o.failures << "\"}";
}

outcome summarize(const error_report& rep, const backend_stats& st) {
  outcome o;
  o.failures_total = rep.failures_total;
  o.tasks_retried = rep.tasks_retried;
  o.tasks_rerouted = rep.tasks_rerouted;
  o.tasks_cancelled = rep.tasks_cancelled;
  o.devices_blacklisted = rep.devices_blacklisted;
  o.alloc_retries = rep.alloc_retries;
  o.rollbacks = st.rollbacks;
  o.tasks_replayed = st.tasks_replayed;
  o.quarantines = st.quarantines;
  for (const task_failure& f : rep.failures) {
    if (!o.failures.empty()) {
      o.failures += "; ";
    }
    o.failures += "#" + std::to_string(f.id) + " " +
                  failure_kind_name(f.kind) + " '" + f.symbol + "'";
    for (std::uint64_t c : f.caused_by) {
      o.failures += " <#" + std::to_string(c);
    }
    for (const std::string& p : f.poisoned) {
      o.failures += " [" + p + "]";
    }
  }
  return o;
}

/// Builds the context every row runs under.
struct harness {
  cudasim::scoped_platform sp;
  cudasim::platform& p;
  context ctx;

  harness(int ndev, bool ckpt) : sp(ndev, tdesc()), p(sp.get()), ctx(p) {
    if (ckpt) {
      ctx.enable_checkpointing({.every_n_tasks = 4});
    }
  }

  cudasim::fault_injector& fi() { return p.ensure_fault_injector(); }

  outcome finish() {
    const error_report rep = ctx.finalize();
    return summarize(rep, ctx.stats());
  }
};

/// y = a * y + b on `where`, as one kernel.
void axpb(context& ctx, cudasim::platform& p, exec_place where,
          logical_data<slice<double>>& ly, double a, double b,
          const std::string& sym) {
  ctx.task(std::move(where), ly.rw()).set_symbol(sym)->*
      [&p, a, b](cudasim::stream& s, slice<double> y) {
        p.launch_kernel(s, {.name = "axpb", .flops = double(y.size())}, [=] {
          for (std::size_t i = 0; i < y.size(); ++i) {
            y(i) = a * y(i) + b;
          }
        });
      };
}

/// z = y, the dependent whose cancellation shows the cause chain.
void reader(context& ctx, cudasim::platform& p, exec_place where,
            logical_data<slice<double>>& ly, logical_data<slice<double>>& lz) {
  ctx.task(std::move(where), ly.read(), lz.rw()).set_symbol("reader")->*
      [&p](cudasim::stream& s, slice<const double> y, slice<double> z) {
        p.launch_kernel(s, {.name = "copy"}, [=] {
          for (std::size_t i = 0; i < y.size(); ++i) {
            z(i) = y(i);
          }
        });
      };
}

constexpr std::size_t n = 64;

// --- the rows ---

outcome transient_kernel_fault_retried(bool ckpt) {
  harness h(1, ckpt);
  h.fi().schedule({.kind = cudasim::fault_kind::kernel_fault, .at_op = 0});
  std::vector<double> y(n, 1.0), z(n, 0.0);
  auto ly = h.ctx.logical_data(y.data(), n, "y");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  axpb(h.ctx, h.p, exec_place::device(0), ly, 2.0, 1.0, "step");
  reader(h.ctx, h.p, exec_place::device(0), ly, lz);
  return h.finish();
}

outcome transient_retries_exhausted(bool ckpt) {
  harness h(1, ckpt);
  h.ctx.set_retry_policy({.max_attempts = 2});
  std::vector<double> y(n, 1.0), z(n, 0.0);
  auto ly = h.ctx.logical_data(y.data(), n, "y");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  for (int t = 0; t < 5; ++t) {
    axpb(h.ctx, h.p, exec_place::device(0), ly, 1.5, 1.0,
         "step" + std::to_string(t));
  }
  // Three faults against a budget of two attempts: the first escalates,
  // and a replay consumes the third.
  for (int i = 0; i < 3; ++i) {
    h.fi().schedule({.kind = cudasim::fault_kind::kernel_fault,
                     .at_op = h.fi().ops_seen()});
  }
  axpb(h.ctx, h.p, exec_place::device(0), ly, 1.5, 1.0, "faulty");
  reader(h.ctx, h.p, exec_place::device(0), ly, lz);
  return h.finish();
}

outcome link_error(bool ckpt) {
  harness h(2, ckpt);
  h.ctx.set_retry_policy({.max_attempts = 1});
  std::vector<double> y(n, 1.0), z(n, 0.0);
  auto ly = h.ctx.logical_data(y.data(), n, "y");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  axpb(h.ctx, h.p, exec_place::device(0), ly, 2.0, 1.0, "init");
  h.p.synchronize();
  // The peer fill of y into device 1 is refused and may not retry.
  h.fi().schedule({.kind = cudasim::fault_kind::link_error,
                   .at_op = h.fi().ops_seen()});
  axpb(h.ctx, h.p, exec_place::device(1), ly, 2.0, 1.0, "moved");
  reader(h.ctx, h.p, exec_place::device(1), ly, lz);
  return h.finish();
}

outcome alloc_failure(bool ckpt) {
  auto small = tdesc();
  small.mem_capacity = 1u << 20;
  cudasim::scoped_platform sp(1, small);
  cudasim::platform& p = sp.get();
  // One injected allocation refusal (absorbed in place), then a genuine
  // pool exhaustion the ladder has to escalate.
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::alloc_fail, .at_op = 0});
  context ctx(p);
  if (ckpt) {
    ctx.enable_checkpointing({.every_n_tasks = 4});
  }
  std::vector<double> y(n, 1.0);
  std::vector<double> big((2u << 20) / sizeof(double), 0.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  auto lbig = ctx.logical_data(big.data(), big.size(), "big");
  axpb(ctx, p, exec_place::device(0), ly, 2.0, 1.0, "fits");
  axpb(ctx, p, exec_place::device(0), lbig, 2.0, 1.0, "too_big");
  axpb(ctx, p, exec_place::device(0), lbig, 2.0, 1.0, "after");
  const error_report rep = ctx.finalize();
  return summarize(rep, ctx.stats());
}

outcome lost_device_task(bool ckpt) {
  harness h(3, ckpt);
  std::vector<double> y(n, 1.0), z(n, 0.0);
  auto ly = h.ctx.logical_data(y.data(), n, "y");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  axpb(h.ctx, h.p, exec_place::device(1), ly, 2.0, 1.0, "init");
  h.fi().schedule({.kind = cudasim::fault_kind::device_fail,
                   .device = 1,
                   .at_op = h.fi().ops_seen() + 1});
  axpb(h.ctx, h.p, exec_place::device(1), ly, 2.0, 1.0, "on_dead");
  // Still aimed at the dead device: re-routed up front.
  axpb(h.ctx, h.p, exec_place::device(1), ly, 2.0, 1.0, "after");
  reader(h.ctx, h.p, exec_place::device(2), ly, lz);
  return h.finish();
}

outcome lost_device_grid(bool ckpt) {
  harness h(4, ckpt);
  h.fi().schedule(
      {.kind = cudasim::fault_kind::device_fail, .device = 3, .at_op = 5});
  constexpr std::size_t m = 1 << 10;
  std::vector<double> x(m);
  std::iota(x.begin(), x.end(), 1.0);
  auto lx = h.ctx.logical_data(x.data(), m, "x");
  for (int it = 0; it < 3; ++it) {
    h.ctx.parallel_for(exec_place::all_devices(), lx.get_shape(), lx.rw())
            .set_symbol("grid" + std::to_string(it))
            ->*[](std::size_t i, slice<double> v) { v(i) = 2.0 * v(i) + 1.0; };
  }
  return h.finish();
}

outcome sole_copy_corruption_at_scrub(bool ckpt) {
  harness h(2, ckpt);
  h.ctx.set_retry_policy({.max_attempts = 1});
  h.ctx.integrity_options();
  std::vector<double> y(n, 0.0), z(n, 0.0);
  auto ly = h.ctx.logical_data(y.data(), n, "y");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  axpb(h.ctx, h.p, exec_place::device(0), ly, 1.0, 7.0, "init");
  h.p.synchronize();
  // At-rest flip of device 0's sole copy of y, fired by an unrelated op.
  h.fi().schedule({.kind = cudasim::fault_kind::bit_flip,
                   .device = 0,
                   .at_op = h.fi().ops_seen(),
                   .site = cudasim::flip_site::resident,
                   .flip_seed = 9});
  axpb(h.ctx, h.p, exec_place::device(1), lz, 1.0, 1.0, "tick");
  h.p.synchronize();
  h.ctx.scrub();
  reader(h.ctx, h.p, exec_place::device(1), ly, lz);
  return h.finish();
}

/// A chain of updates on x whose last step wedges; `queued_reader` puts a
/// consumer behind the wedge, which makes a retry in place unsafe.
outcome deadline_expiry(bool ckpt, bool queued_reader) {
  harness h(1, ckpt);
  h.ctx.set_default_deadline(10.0);
  std::vector<double> x(n, 1.0), z(n, 0.0);
  auto lx = h.ctx.logical_data(x.data(), n, "x");
  auto lz = h.ctx.logical_data(z.data(), n, "z");
  for (int t = 0; t < 3; ++t) {
    axpb(h.ctx, h.p, exec_place::device(0), lx, 1.25, 1.0,
         "step" + std::to_string(t));
  }
  h.fi().schedule({.kind = cudasim::fault_kind::stall,
                   .at_op = h.fi().ops_seen() + 1,
                   .stall_seconds = -1.0});
  axpb(h.ctx, h.p, exec_place::device(0), lx, 1.0, 4.0, "wedged");
  if (queued_reader) {
    reader(h.ctx, h.p, exec_place::device(0), lx, lz);
  }
  return h.finish();
}

outcome deadline_retry_safe(bool ckpt) { return deadline_expiry(ckpt, false); }
outcome deadline_retry_unsafe(bool ckpt) { return deadline_expiry(ckpt, true); }

// --- the table ---

struct row {
  const char* name;
  std::function<outcome(bool)> run;
  outcome plain;         ///< without checkpointing
  outcome checkpointed;  ///< with checkpointing every 4 submissions
};

const std::vector<row>& table() {
  static const std::vector<row> rows = {
      {"TransientKernelFaultRetried", transient_kernel_fault_retried,
       {.tasks_retried = 1},
       {.tasks_retried = 1}},
      {"TransientRetriesExhausted", transient_retries_exhausted,
       {.failures_total = 2,
        .tasks_retried = 1,
        .tasks_cancelled = 1,
        .failures = "#1 kernel_fault 'faulty' [y]; "
                    "#2 cancelled 'reader' <#1 [z]"},
       {.tasks_retried = 2, .rollbacks = 1, .tasks_replayed = 2}},
      {"LinkError", link_error,
       {.failures_total = 2,
        .tasks_cancelled = 1,
        .failures = "#1 link_error 'moved' [y]; "
                    "#2 cancelled 'reader' <#1 [z]"},
       {.rollbacks = 1, .tasks_replayed = 2}},
      {"AllocFailure", alloc_failure,
       {.failures_total = 2,
        .tasks_cancelled = 1,
        .alloc_retries = 1,
        .failures = "#1 out_of_memory 'too_big' [big]; "
                    "#2 cancelled 'after' <#1"},
       {.failures_total = 2,
        .tasks_cancelled = 1,
        .alloc_retries = 1,
        .rollbacks = 1,
        .tasks_replayed = 2,
        .failures = "#1 out_of_memory 'too_big' [big]; "
                    "#2 cancelled 'after' <#1"}},
      {"LostDeviceTask", lost_device_task,
       {.tasks_rerouted = 2, .devices_blacklisted = 1},
       {.tasks_rerouted = 2, .devices_blacklisted = 1}},
      {"LostDeviceGrid", lost_device_grid,
       {.tasks_rerouted = 1, .devices_blacklisted = 1},
       {.tasks_rerouted = 1, .devices_blacklisted = 1}},
      {"SoleCopyCorruptionAtScrub", sole_copy_corruption_at_scrub,
       {.failures_total = 2,
        .tasks_cancelled = 1,
        .failures = "#1 data_corrupted 'scrub' [y]; "
                    "#2 cancelled 'reader' <#1 [z]"},
       {.rollbacks = 1, .tasks_replayed = 2}},
      {"DeadlineRetrySafe", deadline_retry_safe,
       {.tasks_retried = 1},
       {.tasks_retried = 1}},
      {"DeadlineRetryUnsafe", deadline_retry_unsafe,
       {.failures_total = 1, .failures = "#1 deadline_expired 'wedged' [x]"},
       {.rollbacks = 1, .tasks_replayed = 1}},
  };
  return rows;
}

class RecoveryLadder
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(RecoveryLadder, ExactOutcome) {
  const auto [i, ckpt] = GetParam();
  const row& r = table()[i];
  EXPECT_EQ(r.run(ckpt), ckpt ? r.checkpointed : r.plain);
}

INSTANTIATE_TEST_SUITE_P(
    Rows, RecoveryLadder,
    ::testing::Combine(::testing::Range<std::size_t>(0, table().size()), ::testing::Bool()),
    [](const auto& info) {
      return std::string(table()[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) ? "_Checkpointed" : "_Plain");
    });

}  // namespace
