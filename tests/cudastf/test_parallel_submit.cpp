// Parallel host-side submission (DESIGN.md §11, paper §VII-E): the flat
// combiner that drains every worker's submission through the one
// single-threaded pipeline, deterministic-order mode, and the thread-safe
// cudasim boundary. Covers: disjoint-data fan-out with no cross-talk,
// shared-data serialization through every builder, exceptions handed back
// to the submitting worker, bit-identical deterministic schedules on both
// backends, submission under injected faults, replay after an epoch
// restart, and slab-recycling / structural-op stress.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 512u << 20;
  return d;
}

void axpb_kernel(cudasim::platform& p, cudasim::stream& s, double a, double b,
                 slice<double> x) {
  p.launch_kernel(s, {.name = "axpb", .flops = double(x.size())}, [=] {
    for (std::size_t i = 0; i < x.size(); ++i) {
      x(i) = a * x(i) + b;
    }
  });
}

// --- disjoint data: N threads, no cross-talk, every submission combined ---

TEST(ParallelSubmit, DisjointDataNoCrossTalk) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t n = 64;
  constexpr std::size_t tasks_per_data = 25;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 1.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "d" + std::to_string(t)));
  }
  // Warm-up: allocate + validate each data's device instance so the MT
  // loop needs no allocation or transfer.
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }
  const std::uint64_t tasks_before = ctx.stats().tasks;
  const std::uint64_t fast_before = ctx.fast_path_submits();

  ctx.parallel_submit(n_threads, n_threads * tasks_per_data,
                      [&](std::size_t item) {
                        auto& d = data[item % n_threads];
                        ctx.task(d.rw())->*
                            [&](cudasim::stream& s, slice<double> v) {
                              axpb_kernel(p, s, 1.0, 1.0, v);
                            };
                      });

  // Exactly one backend submission per item, each drained by the combiner.
  EXPECT_EQ(ctx.stats().tasks - tasks_before, n_threads * tasks_per_data);
  EXPECT_EQ(ctx.fast_path_submits() - fast_before,
            n_threads * tasks_per_data);

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][i],
                       1.0 + double(tasks_per_data))
          << "thread " << t << " elem " << i;
    }
  }
}

// --- shared data: every builder serializes correctly across threads ---

TEST(ParallelSubmit, SharedDataSerializesCorrectly) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 200;
  constexpr std::size_t n = 16;
  std::vector<double> acc(n, 0.0);
  auto lacc = ctx.logical_data(acc.data(), n, "acc");
  ctx.task(lacc.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);  // warm-up: device instance valid
  };
  const std::uint64_t fast_before = ctx.fast_path_submits();

  // Items cycle through all four builders; each adds 1 to every element,
  // so the result is order-independent.
  ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    switch (item % 4) {
      case 0:
        ctx.task(lacc.rw())->*[&](cudasim::stream& s, slice<double> v) {
          axpb_kernel(p, s, 1.0, 1.0, v);
        };
        break;
      case 1:
        ctx.parallel_for(lacc.get_shape(), lacc.rw())->*
            [](std::size_t i, slice<double> v) { v(i) += 1.0; };
        break;
      case 2:
        ctx.launch(par(con(4)), exec_place::device(0), lacc.rw())->*
            [](thread_hierarchy& th, slice<double> v) {
              for (auto [i] : th.apply_partition(shape(v))) {
                v(i) += 1.0;
              }
            };
        break;
      default:
        ctx.host_launch(lacc.rw())->*[](slice<double> v) {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v(i) += 1.0;
          }
        };
        break;
    }
  });
  EXPECT_EQ(ctx.fast_path_submits() - fast_before, items);

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(acc[i], double(items)) << i;
  }
}

// --- a combined submission's exception reaches the worker that made it ---

TEST(ParallelSubmit, CombinedExceptionReachesItsSubmitter) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 210;
  constexpr std::size_t n = 16;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "e" + std::to_string(t)));
  }
  std::vector<double> src(n, 1.0);
  auto lsrc = ctx.logical_data(src.data(), n, "src");
  auto bad = [](std::size_t item) { return item % 7 == 3; };

  // A bad item targets device 7 of a 2-device platform: its submission
  // throws std::out_of_range inside whichever worker combines it. Every
  // worker catches only its own failures, so an exception handed to the
  // wrong worker escapes parallel_submit, and a swallowed one leaves its
  // item's count at zero.
  std::vector<std::atomic<int>> caught(items);
  const std::uint64_t fast_before = ctx.fast_path_submits();
  EXPECT_NO_THROW(ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    if (bad(item)) {
      try {
        ctx.task(exec_place::device(7), lsrc.read())->*
            [](cudasim::stream&, slice<const double>) {};
      } catch (const std::out_of_range&) {
        caught[item].fetch_add(1);
      }
      return;
    }
    ctx.task(data[item % n_threads].rw())->*
        [&](cudasim::stream& s, slice<double> v) {
          axpb_kernel(p, s, 1.0, 1.0, v);
        };
  }));
  EXPECT_EQ(ctx.fast_path_submits() - fast_before, items);

  std::vector<double> want(n_threads, 0.0);
  std::size_t n_bad = 0;
  for (std::size_t item = 0; item < items; ++item) {
    ASSERT_EQ(caught[item].load(), bad(item) ? 1 : 0) << "item " << item;
    if (bad(item)) {
      ++n_bad;
    } else {
      want[item % n_threads] += 1.0;
    }
  }
  const error_report rep = ctx.finalize();
  EXPECT_EQ(rep.failures_total, n_bad) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][i],
                       want[static_cast<std::size_t>(t)])
          << "data " << t << " elem " << i;
    }
  }
}

// --- deterministic-order mode: bit-identical to a single-thread loop ---

// The per-item update x = a_i * x + b_i does not commute, so any order
// change shows up in the bytes. One single-threaded reference run, then a
// multi-threaded deterministic run; outputs must memcmp equal.
void run_affine_chain(context ctx, cudasim::platform& p,
                      std::vector<double>& host, int n_threads,
                      std::size_t items) {
  auto lx = ctx.logical_data(host.data(), host.size(), "x");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);
  };
  auto submit_one = [&](std::size_t i) {
    const double a = 1.0 + 1e-3 * double(i % 7);
    const double b = 1e-2 * double(i % 11);
    ctx.task(lx.rw())->*[&p, a, b](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, a, b, v);
    };
  };
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < items; ++i) {
      submit_one(i);
    }
  } else {
    ctx.set_deterministic_order(true);
    ctx.parallel_submit(n_threads, items, submit_one);
  }
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

TEST(ParallelSubmit, DeterministicOrderBitIdenticalStreamBackend) {
  constexpr std::size_t n = 128, items = 120;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), ref, 1, items);
  }
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), mt, 4, items);
  }
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

TEST(ParallelSubmit, DeterministicOrderBitIdenticalGraphBackend) {
  constexpr std::size_t n = 128, items = 60;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context::graph(sp.get()), sp.get(), ref, 1, items);
  }
  {
    // The graph backend records one capture graph per epoch; the
    // turnstile retires items in order through the combiner.
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context::graph(sp.get()), sp.get(), mt, 4, items);
  }
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

// --- parallel submission under injected faults ---

TEST(ParallelSubmit, RecoversFromTransientFaultsUnderParallelSubmission) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  // Two transient kernel refusals while workers are submitting. An armed
  // injector makes fault_aware() true, so every submission takes the
  // resilient path — parallel_submit composes with recovery.
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 9});
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::kernel_fault, .device = -1, .at_op = 23});
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 3});

  constexpr int n_threads = 4;
  constexpr std::size_t items = 48;
  constexpr std::size_t n = 32;
  std::vector<double> x(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");

  ctx.parallel_submit(n_threads, items, [&](std::size_t) {
    ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], double(items)) << i;
  }
}

// --- deterministic replay after an epoch restart ---

TEST(ParallelSubmit, DeterministicReplayAfterEpochRestart) {
  constexpr std::size_t n = 64, items = 30;
  std::vector<double> ref(n, 1.0), mt(n, 1.0);
  {
    // Fault-free single-threaded reference.
    cudasim::scoped_platform sp(2, tdesc());
    run_affine_chain(context(sp.get()), sp.get(), ref, 1, items);
  }
  backend_stats stats{};
  {
    // Multi-threaded deterministic submission with a permanent mid-run
    // kernel fault: the checkpoint log (recorded in item order thanks to
    // the turnstile) rolls back and replays; bytes must still match the
    // fault-free single-threaded reference.
    cudasim::scoped_platform sp(2, tdesc());
    sp.get().ensure_fault_injector().schedule(
        {.kind = cudasim::fault_kind::kernel_fault, .device = -1,
         .at_op = 14});
    context ctx(sp.get());
    ctx.set_retry_policy({.max_attempts = 1});
    ctx.enable_checkpointing({.every_n_tasks = 6});
    run_affine_chain(ctx, sp.get(), mt, 4, items);
    stats = ctx.stats();
  }
  EXPECT_GE(stats.rollbacks, 1u);
  EXPECT_GE(stats.tasks_replayed, 1u);
  EXPECT_EQ(std::memcmp(ref.data(), mt.data(), n * sizeof(double)), 0);
}

// --- structural operations mixed into the worker loop ---

TEST(ParallelSubmit, StructuralOpsMixedWithFastPath) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 160;
  constexpr std::size_t n = 32;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "m" + std::to_string(t)));
  }
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }

  // Every 40th item runs a structural op (fence: drains the DES, recycles
  // slab nodes via gc) from a worker thread, exercising the context lock
  // against in-flight combined submissions and the generation tags that
  // make events on recycled nodes read as completed.
  ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    if (item % 40 == 17) {
      ctx.fence();
    }
    auto& d = data[item % n_threads];
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 1.0, v);
    };
  });

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (int t = 0; t < n_threads; ++t) {
    const double want = double(items / n_threads);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(host[static_cast<std::size_t>(t)][i], want)
          << "data " << t << " elem " << i;
    }
  }
}

// --- slab recycling stress: many epochs of submit + drain ---

TEST(ParallelSubmit, SlabRecyclingStressAcrossEpochs) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr std::size_t n = 16;
  std::vector<double> x(n, 0.0);
  auto lx = ctx.logical_data(x.data(), n, "x");
  ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
    axpb_kernel(p, s, 1.0, 0.0, v);
  };

  constexpr int epochs = 8;
  constexpr std::size_t per_epoch = 64;
  for (int e = 0; e < epochs; ++e) {
    ctx.parallel_submit(4, per_epoch, [&](std::size_t) {
      ctx.task(lx.rw())->*[&](cudasim::stream& s, slice<double> v) {
        axpb_kernel(p, s, 1.0, 1.0, v);
      };
    });
    // Drain + gc: retire and recycle the epoch's nodes
    // (the stream backend's fence is a no-op, so drain at platform level).
    p.synchronize();
  }
  // Recycling actually engaged: later epochs are served from the pool.
  EXPECT_GT(p.nodes_pooled(), 0u);

  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(x[i], double(epochs * per_epoch)) << i;
  }
}

// --- counters stay coherent under concurrent increments ---

TEST(ParallelSubmit, StatsCountersCoherentUnderConcurrency) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);

  constexpr int n_threads = 4;
  constexpr std::size_t items = 100;
  constexpr std::size_t n = 8;
  std::vector<std::vector<double>> host(n_threads,
                                        std::vector<double>(n, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int t = 0; t < n_threads; ++t) {
    data.push_back(ctx.logical_data(host[static_cast<std::size_t>(t)].data(),
                                    n, "c" + std::to_string(t)));
  }
  for (auto& d : data) {
    ctx.task(d.rw())->*[&](cudasim::stream& s, slice<double> v) {
      axpb_kernel(p, s, 1.0, 0.0, v);
    };
  }
  const std::uint64_t tasks_before = ctx.stats().tasks;

  ctx.parallel_submit(n_threads, items, [&](std::size_t item) {
    ctx.task(data[item % n_threads].rw())->*
        [&](cudasim::stream& s, slice<double> v) {
          axpb_kernel(p, s, 1.0, 1.0, v);
        };
  });

  // Every combined submission counted once: no increments lost.
  EXPECT_EQ(ctx.stats().tasks - tasks_before, items);
  const error_report rep = ctx.finalize();
  ASSERT_TRUE(rep.ok()) << rep.to_string();
}

}  // namespace
