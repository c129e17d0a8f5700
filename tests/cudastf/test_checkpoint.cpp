// Epoch checkpoint/restart (DESIGN.md §7): incremental snapshots, atomic
// commit, rollback + deterministic replay after permanent failures (bit-
// identical to fault-free), full gating when disarmed, declared task
// ordering with declaration-time cycle detection, and pin accounting on
// failed fast-path submissions.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "blaslib/blas_host.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

// A fixed chain of axpy tasks round-robin over the platform's devices.
// Per-element arithmetic is placement-independent, so two runs of the same
// chain are bit-comparable even when a restart lands on fewer devices.
struct chain_result {
  std::vector<double> y;
  error_report rep;
  backend_stats stats{};
  double now = 0.0;
};

chain_result run_chain(int ndev, bool enable_ckpt,
                       void (*arm)(cudasim::platform&)) {
  cudasim::scoped_platform sp(ndev, tdesc());
  cudasim::platform& p = sp.get();
  if (arm != nullptr) {
    arm(p);
  }
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  if (enable_ckpt) {
    ctx.enable_checkpointing({.every_n_tasks = 6});
  }
  constexpr std::size_t n = 256;
  std::vector<double> x(n), y(n, 0.0);
  std::iota(x.begin(), x.end(), 1.0);
  chain_result r;
  {
    auto lx = ctx.logical_data(x.data(), n, "x");
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 20; ++t) {
      ctx.task(exec_place::device(t % ndev), lx.read(), ly.rw())
              .set_symbol("axpy") ->*
          [&p](cudasim::stream& s, slice<const double> dx, slice<double> dy) {
            p.launch_kernel(s, {.name = "axpy", .flops = double(dx.size())},
                            [=] {
                              for (std::size_t i = 0; i < dx.size(); ++i) {
                                dy(i) += 1.5 * dx(i);
                              }
                            });
          };
    }
    r.rep = ctx.finalize();
    r.stats = ctx.stats();
    r.now = p.now();
  }
  r.y = std::move(y);
  return r;
}

// --- rollback + deterministic replay ---

TEST(CheckpointRestart, KernelFaultEscalatesToEpochRestartBitIdentical) {
  const chain_result ref = run_chain(3, false, nullptr);
  ASSERT_TRUE(ref.rep.ok()) << ref.rep.to_string();

  // One kernel fault, one permitted attempt: the retry rung is exhausted
  // immediately and the failure escalates to an epoch restart.
  const chain_result got = run_chain(3, true, [](cudasim::platform& p) {
    p.ensure_fault_injector().schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 30});
  });
  EXPECT_TRUE(got.rep.ok()) << got.rep.to_string();
  EXPECT_GE(got.stats.checkpoints_taken, 1u);
  EXPECT_EQ(got.stats.rollbacks, 1u);
  EXPECT_GE(got.stats.tasks_replayed, 1u);
  ASSERT_EQ(got.y.size(), ref.y.size());
  EXPECT_EQ(std::memcmp(got.y.data(), ref.y.data(),
                        ref.y.size() * sizeof(double)),
            0);
}

TEST(CheckpointRestart, WithoutCheckpointingSameFaultPoisonsData) {
  // Control for the test above: the identical fault without a checkpoint
  // manager lands on the poison-and-cancel rung instead.
  const chain_result got = run_chain(3, false, [](cudasim::platform& p) {
    p.ensure_fault_injector().schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 30});
  });
  EXPECT_FALSE(got.rep.ok());
  EXPECT_GE(got.rep.tasks_cancelled, 1u);
  EXPECT_EQ(got.stats.rollbacks, 0u);
}

TEST(CheckpointRestart, PartialDeviceLossRestartsOnSurvivors) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing();  // committed snapshot = registration contents
  constexpr std::size_t n = 128;
  std::vector<double> y(n, 0.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("init") ->*
        [&p](cudasim::stream& s, slice<double> dy) {
          p.launch_kernel(s, {.name = "init"}, [=] {
            for (std::size_t i = 0; i < dy.size(); ++i) {
              dy(i) = double(i) + 1.0;
            }
          });
        };
    // Device 0 fail-stops between the two kernels of the next task: a
    // partial submission is never retried, so it escalates straight to an
    // epoch restart, which replays both tasks on the surviving device.
    fi.schedule({.kind = cudasim::fault_kind::device_fail,
                 .device = 0,
                 .at_op = fi.ops_seen() + 2});
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("two_step") ->*
        [&p](cudasim::stream& s, slice<double> dy) {
          p.launch_kernel(s, {.name = "step_a"}, [=] {
            for (std::size_t i = 0; i < dy.size(); ++i) {
              dy(i) += 1.0;
            }
          });
          p.launch_kernel(s, {.name = "step_b"}, [=] {
            for (std::size_t i = 0; i < dy.size(); ++i) {
              dy(i) *= 2.0;
            }
          });
        };
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.devices_blacklisted, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.tasks_replayed, 2u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], (double(i) + 2.0) * 2.0) << i;
  }
}

TEST(CheckpointRestart, ParallelForReplaysAfterRestart) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 8});
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing({.every_n_tasks = 3});
  constexpr std::size_t n = 128;
  std::vector<double> y(n, 0.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 10; ++t) {
      ctx.parallel_for(exec_place::device(t % 2), box<1>(n), ly.rw()) ->*
          [](std::size_t i, slice<double> v) { v(i) += 1.0; };
    }
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(stats.rollbacks, 1u);
  EXPECT_GE(stats.tasks_replayed, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 10.0) << i;  // each increment applied exactly once
  }
}

// The other two builders replay too: a launch spanning both devices and a
// host_launch, interleaved on the same data, with a kernel fault escalating
// to an epoch restart after the last checkpoint. The observer counts ops
// per construct, so a restart that replayed only one of them is told apart
// from one that replayed both.
TEST(CheckpointRestart, LaunchAndHostLaunchReplayAfterRestart) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 14});
  context ctx(p);
  trace_observer trace;
  ctx.observe(trace);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing({.every_n_tasks = 4});
  constexpr std::size_t n = 128;
  constexpr int rounds = 8;
  std::vector<double> y(n, 0.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < rounds; ++t) {
      ctx.launch(par(con(4)), exec_place::all_devices(), ly.rw())
              .set_symbol("launch_inc") ->*
          [](thread_hierarchy& th, slice<double> v) {
            for (auto [i] : th.apply_partition(shape(v))) {
              v(i) += 1.0;
            }
          };
      ctx.host_launch(ly.rw()).set_symbol("host_inc")->*[](slice<double> v) {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) += 1.0;
        }
      };
    }
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  ctx.unobserve(trace);
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(stats.rollbacks, 1u);
  // Every submission and every replay emits one record, so records beyond
  // one per submission are replays (the faulted launch emits a failed
  // record, then completes through its replay).
  std::size_t launches = 0, hosts = 0;
  for (const op_record& r : trace.records()) {
    launches += r.kind == op_kind::launch ? 1 : 0;
    hosts += r.kind == op_kind::host ? 1 : 0;
  }
  const std::size_t launch_replays = launches - rounds;
  const std::size_t host_replays = hosts - rounds;
  EXPECT_GE(launch_replays, 1u);
  EXPECT_GE(host_replays, 1u);
  EXPECT_EQ(stats.tasks_replayed, launch_replays + host_replays);
  for (std::size_t i = 0; i < n; ++i) {
    // Each of the 2 * rounds increments applied exactly once.
    ASSERT_DOUBLE_EQ(y[i], 2.0 * rounds) << i;
  }
}

TEST(CheckpointRestart, TiledCholeskyBitIdenticalAfterRestart) {
  using namespace blaslib;
  constexpr std::size_t n = 64, block = 16;
  std::vector<double> dense(n * n);
  fill_spd(dense.data(), n, 11);

  // Fault-free reference.
  std::vector<double> ref_out(n * n, 0.0);
  {
    cudasim::scoped_platform sp(4, tdesc());
    tile_matrix tiles(n, block);
    tiles.import_dense(dense.data());
    context ctx(sp.get());
    tiled_cholesky_stf(ctx, tiles, {.block = block});
    const error_report rep = ctx.finalize();
    ASSERT_TRUE(rep.ok()) << rep.to_string();
    tiles.export_dense(ref_out.data());
  }

  // Same factorization with a mid-run permanent kernel fault, recovered by
  // epoch restart; the result must match the reference bit for bit.
  std::vector<double> out(n * n, 0.0);
  backend_stats stats{};
  {
    cudasim::scoped_platform sp(4, tdesc());
    sp.get().ensure_fault_injector().schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 40});
    tile_matrix tiles(n, block);
    tiles.import_dense(dense.data());
    context ctx(sp.get());
    ctx.set_retry_policy({.max_attempts = 1});
    ctx.enable_checkpointing({.every_n_tasks = 8});
    tiled_cholesky_stf(ctx, tiles, {.block = block});
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    stats = ctx.stats();
    tiles.export_dense(out.data());
  }
  EXPECT_GE(stats.rollbacks, 1u);
  EXPECT_GE(stats.tasks_replayed, 1u);
  EXPECT_EQ(std::memcmp(out.data(), ref_out.data(), n * n * sizeof(double)),
            0);
}

// --- checkpoint mechanics ---

TEST(CheckpointMechanics, ManualCheckpointIsIncremental) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.enable_checkpointing();  // no automatic triggers
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 0.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  auto bump = [&] {
    ctx.task(ly.rw()) ->* [&p](cudasim::stream& s, slice<double> dy) {
      p.launch_kernel(s, {.name = "bump"}, [=] {
        for (std::size_t i = 0; i < dy.size(); ++i) {
          dy(i) += 1.0;
        }
      });
    };
  };
  bump();
  EXPECT_TRUE(ctx.checkpoint());
  EXPECT_EQ(ctx.stats().checkpoints_taken, 1u);
  EXPECT_EQ(ctx.stats().checkpoint_bytes, n * sizeof(double));
  // Nothing written since: the next checkpoint snapshots zero bytes
  // (dirty-only incremental snapshots keyed on write_version).
  EXPECT_TRUE(ctx.checkpoint());
  EXPECT_EQ(ctx.stats().checkpoints_taken, 2u);
  EXPECT_EQ(ctx.stats().checkpoint_bytes, n * sizeof(double));
  bump();
  EXPECT_TRUE(ctx.checkpoint());
  EXPECT_EQ(ctx.stats().checkpoint_bytes, 2 * n * sizeof(double));
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok());
  EXPECT_DOUBLE_EQ(y[5], 2.0);
}

TEST(CheckpointMechanics, AutoCheckpointEveryNTasks) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.enable_checkpointing({.every_n_tasks = 4});
  constexpr std::size_t n = 64;
  std::vector<double> y(n, 0.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  for (int t = 0; t < 17; ++t) {
    ctx.task(ly.rw()) ->* [&p](cudasim::stream& s, slice<double> dy) {
      p.launch_kernel(s, {.name = "t"}, [=] { dy(0) += 1.0; });
    };
  }
  ctx.finalize();
  EXPECT_EQ(ctx.stats().checkpoints_taken, 4u);
  EXPECT_DOUBLE_EQ(y[0], 17.0);
}

TEST(CheckpointMechanics, DisabledCheckpointingIsFullyGatedOff) {
  double now_plain = 0.0, now_armed = 0.0;
  for (int armed = 0; armed < 2; ++armed) {
    cudasim::scoped_platform sp(2, tdesc());
    cudasim::platform& p = sp.get();
    context ctx(p);
    if (armed) {
      // Enabled but never triggered: snapshots and the submission log are
      // host-side only and must not perturb the simulated timeline.
      ctx.enable_checkpointing();
    }
    constexpr std::size_t n = 256;
    std::vector<double> y(n, 0.0);
    auto ly = ctx.logical_data(y.data(), n, "y");
    for (int t = 0; t < 12; ++t) {
      ctx.task(exec_place::device(t % 2), ly.rw()) ->*
          [&p](cudasim::stream& s, slice<double> dy) {
            p.launch_kernel(s, {.name = "t", .flops = 1e6},
                            [=] { dy(0) += 1.0; });
          };
    }
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok());
    if (!armed) {
      EXPECT_EQ(ctx.stats().checkpoints_taken, 0u);
      EXPECT_EQ(ctx.stats().checkpoint_bytes, 0u);
      EXPECT_EQ(ctx.stats().rollbacks, 0u);
      EXPECT_EQ(ctx.stats().tasks_replayed, 0u);
    }
    (armed ? now_armed : now_plain) = p.now();
  }
  EXPECT_DOUBLE_EQ(now_plain, now_armed);
}

// --- declared task ordering (watchdog satellite) ---

TEST(DeclaredOrder, CycleDeclarationThrowsWithSymbols) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  ctx.order_after("a", "b");
  ctx.order_after("b", "c");
  try {
    ctx.order_after("c", "a");
    FAIL() << "closing edge must be rejected";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("declared task-order cycle"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'a'"), std::string::npos) << what;
    EXPECT_NE(what.find("'b'"), std::string::npos) << what;
    EXPECT_NE(what.find("'c'"), std::string::npos) << what;
  }
  EXPECT_THROW(ctx.order_after("x", "x"), std::logic_error);
  ctx.finalize();
}

TEST(DeclaredOrder, OrderAfterSerializesIndependentTasks) {
  double now_free = 0.0, now_ordered = 0.0;
  for (int ordered = 0; ordered < 2; ++ordered) {
    cudasim::scoped_platform sp(2, tdesc());
    cudasim::platform& p = sp.get();
    context ctx(p);
    if (ordered) {
      ctx.order_after("first", "second");
    }
    constexpr std::size_t n = 64;
    std::vector<double> a(n, 0.0), b(n, 0.0);
    auto la = ctx.logical_data(a.data(), n, "a");
    auto lb = ctx.logical_data(b.data(), n, "b");
    // Independent data on independent devices: these overlap unless the
    // declared edge forces the second to wait for the first.
    ctx.task(exec_place::device(0), la.rw()).set_symbol("first") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "first", .flops = 1e9},
                          [=] { v(0) = 1.0; });
        };
    ctx.task(exec_place::device(1), lb.rw()).set_symbol("second") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "second", .flops = 1e9},
                          [=] { v(0) = 2.0; });
        };
    const error_report rep = ctx.finalize();
    EXPECT_TRUE(rep.ok());
    EXPECT_DOUBLE_EQ(a[0], 1.0);
    EXPECT_DOUBLE_EQ(b[0], 2.0);
    (ordered ? now_ordered : now_free) = p.now();
  }
  EXPECT_GT(now_ordered, now_free);
}

// --- pin accounting on failed fast-path submissions (ASan satellite) ---

void run_pin_leak_scenario(bool graph) {
  auto d = cudasim::test_desc();
  d.mem_capacity = 1u << 20;  // 1 MiB pool
  cudasim::scoped_platform sp(1, d);
  context ctx = graph ? context::graph(sp.get()) : context(sp.get());
  constexpr std::size_t n = 75000;  // 600 KB of doubles
  std::vector<double> a(n, 1.0), b(n, 0.0);
  auto la = ctx.logical_data(a.data(), n, "a");
  auto lb = ctx.logical_data(b.data(), n, "b");
  // a resident and modified on the device.
  ctx.parallel_for(box<1>(n), la.rw()) ->*
      [](std::size_t i, slice<double> va) { va(i) += 1.0; };
  // Acquiring (a, b) pins a first; allocating b then needs more than the
  // pool holds and the only eviction candidate is pinned -> OOM mid-acquire.
  EXPECT_THROW(
      (ctx.parallel_for(box<1>(n), la.read(), lb.rw()) ->*
       [](std::size_t, slice<const double>, slice<double>) {}),
      std::bad_alloc);
  // The failed submission must have dropped its pins: b alone now fits by
  // evicting a. Before the fix a stayed pinned and this threw OOM again.
  ctx.parallel_for(box<1>(n), lb.rw()) ->*
      [](std::size_t i, slice<double> vb) { vb(i) = 2.0; };
  ctx.finalize();
  EXPECT_DOUBLE_EQ(a[0], 2.0);  // evicted copy carried the += 1.0
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}

TEST(PinAccounting, FailedFastPathAcquireUnpinsStreamBackend) {
  run_pin_leak_scenario(false);
}

TEST(PinAccounting, FailedFastPathAcquireUnpinsGraphBackend) {
  run_pin_leak_scenario(true);
}

TEST(PinAccounting, FailedHostAcquireUnpins) {
  auto d = cudasim::test_desc();
  d.mem_capacity = 1u << 20;
  cudasim::scoped_platform sp(1, d);
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});  // first refusal escapes acquire
  constexpr std::size_t n = 75000;
  std::vector<double> a(n, 1.0), b(n, 0.0);
  auto la = ctx.logical_data(a.data(), n, "a");
  auto lb = ctx.logical_data(b.data(), n, "b");
  // a modified on the device: a host acquire must copy it back down.
  ctx.parallel_for(box<1>(n), la.rw()) ->*
      [](std::size_t i, slice<double> va) { va(i) += 1.0; };
  // The d2h fill copy of the host submission is refused: acquire throws
  // out of the host fast path with a pinned. The bail-out must unpin.
  auto& fi = p.ensure_fault_injector();
  fi.schedule({.kind = cudasim::fault_kind::link_error,
               .device = -1,
               .at_op = fi.ops_seen()});
  EXPECT_THROW(
      (ctx.parallel_for(exec_place::host(), box<1>(n), la.read(), lb.rw()) ->*
       [](std::size_t, slice<const double>, slice<double>) {}),
      std::runtime_error);
  // b alone now fits by evicting the unpinned a. Before the fix a stayed
  // pinned and this failed with OOM.
  ctx.parallel_for(box<1>(n), lb.rw()) ->*
      [](std::size_t i, slice<double> vb) { vb(i) = 2.0; };
  ctx.finalize();
  EXPECT_DOUBLE_EQ(a[0], 2.0);  // eviction staged the += 1.0 to the host
  EXPECT_DOUBLE_EQ(b[0], 2.0);
}


// --- context lifetime ---

// The epoch log keeps a replay closure per task, and each closure holds a
// copy of its builder, which shares the context state. finalize() must drop
// them once nothing can restart any more, or the context outlives its last
// handle. The sentinel is captured by every task body.
long sentinel_uses_after_finalize(bool with_deadline) {
  auto sentinel = std::make_shared<int>(0);
  cudasim::scoped_platform sp(1, tdesc());
  {
    context ctx(sp.get());
    ctx.enable_checkpointing({.every_n_tasks = 4});
    if (with_deadline) {
      ctx.set_default_deadline(1.0);
    }
    std::vector<double> y(16, 0.0);
    auto ly = ctx.logical_data(y.data(), y.size(), "y");
    for (int t = 0; t < 8; ++t) {
      ctx.task(ly.rw())->*[sentinel](cudasim::stream&, slice<double>) {};
    }
    EXPECT_TRUE(ctx.finalize().ok());
  }
  return sentinel.use_count();
}

TEST(CheckpointLifetime, FinalizeReleasesTheContext) {
  EXPECT_EQ(sentinel_uses_after_finalize(false), 1);
}

TEST(CheckpointLifetime, FinalizeReleasesTheContextWithDeadlineArmed) {
  EXPECT_EQ(sentinel_uses_after_finalize(true), 1);
}

}  // namespace
