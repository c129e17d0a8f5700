// Integration tests for the CUDA-shaped platform API: streams, events,
// copies, stream-ordered allocation, host callbacks, virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "cudasim/cudasim.hpp"

namespace {

using namespace cudasim;

device_desc small_desc() {
  device_desc d = test_desc();
  d.launch_latency = 1.0e-6;
  d.copy_latency = 0.0;
  d.alloc_latency = 0.0;
  return d;
}

TEST(Stream, KernelBodyRunsOnSynchronize) {
  platform p(1, small_desc());
  stream s(p);
  int hits = 0;
  p.launch_kernel(s, {.name = "k"}, [&] { ++hits; });
  EXPECT_EQ(hits, 0);  // asynchronous
  s.synchronize();
  EXPECT_EQ(hits, 1);
}

TEST(Stream, StreamOrderIsPreserved) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    p.launch_kernel(s, {.name = "k"}, [&order, i] { order.push_back(i); });
  }
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, KernelCostModelRoofline) {
  device_desc d = small_desc();
  // compute-bound: 1e12 flops at 1e12 flop/s = 1s
  kernel_desc k{.name = "k", .flops = 1e12, .bytes = 1e9};
  EXPECT_NEAR(kernel_cost_seconds(d, k), 1.0, 1e-9);
  // memory-bound: 1e12 bytes at 100e9 B/s = 10s
  kernel_desc k2{.name = "k", .flops = 1e12, .bytes = 1e12};
  EXPECT_NEAR(kernel_cost_seconds(d, k2), 10.0, 1e-9);
  // remote traffic is additive
  kernel_desc k3{.name = "k", .flops = 0, .bytes = 0, .remote_bytes = 25e9};
  EXPECT_NEAR(kernel_cost_seconds(d, k3), 1.0, 1e-9);
}

TEST(Stream, MemcpyMovesBytes) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<double> host(128);
  std::iota(host.begin(), host.end(), 0.0);
  void* dev = p.malloc_async(sizeof(double) * 128, s);
  ASSERT_NE(dev, nullptr);
  std::vector<double> back(128, -1.0);
  p.memcpy_async(dev, host.data(), sizeof(double) * 128,
                 memcpy_kind::host_to_device, s);
  p.memcpy_async(back.data(), dev, sizeof(double) * 128,
                 memcpy_kind::device_to_host, s);
  p.free_async(dev, s);
  s.synchronize();
  EXPECT_EQ(back, host);
}

TEST(Stream, MallocAsyncHonorsCapacity) {
  device_desc d = small_desc();
  d.mem_capacity = 1 << 20;
  platform p(1, d);
  stream s(p);
  void* a = p.malloc_async(800 << 10, s);
  ASSERT_NE(a, nullptr);
  void* b = p.malloc_async(800 << 10, s);
  EXPECT_EQ(b, nullptr);  // over capacity
  p.free_async(a, s);
  void* c = p.malloc_async(800 << 10, s);
  EXPECT_NE(c, nullptr);  // space returned in submission order
  p.free_async(c, s);
  s.synchronize();
}

TEST(Stream, DestroyedPlatformReleasesUndrainedAllocations) {
  // The platform owns the host backing of every stream-ordered allocation
  // it still holds when destroyed: freed by a node that never ran, or
  // never freed. Each is released exactly once. scripts/tier1.sh
  // --sanitize runs this suite with LeakSanitizer on.
  auto p = std::make_unique<platform>(1, small_desc());
  {
    stream s(*p);
    void* drained = p->malloc_async(1 << 20, s);
    ASSERT_NE(drained, nullptr);
    p->free_async(drained, s);
    s.synchronize();  // this free's node runs and releases the backing
    void* freed = p->malloc_async(1 << 20, s);
    void* kept = p->malloc_async(1 << 20, s);
    ASSERT_NE(freed, nullptr);
    ASSERT_NE(kept, nullptr);
    p->free_async(freed, s);  // no synchronize: the free node stays pending
  }
  p.reset();
}

TEST(Stream, EventOrdersAcrossStreams) {
  platform p(2, small_desc());
  stream s0(p, 0);
  stream s1(p, 1);
  std::vector<int> order;
  p.launch_kernel(s0, {.name = "slow", .fixed_seconds = 1.0},
                  [&] { order.push_back(0); });
  event e(p);
  e.record(s0);
  s1.wait_event(e);
  p.launch_kernel(s1, {.name = "after"}, [&] { order.push_back(1); });
  p.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(e.query());
}

TEST(Stream, WaitOnCompletedEventIsNoop) {
  platform p(1, small_desc());
  stream s(p);
  event e(p);
  p.launch_kernel(s, {.name = "k"}, {});
  e.record(s);
  e.synchronize();
  stream s2(p);
  s2.wait_event(e);  // must not deadlock or throw
  p.launch_kernel(s2, {.name = "k2"}, {});
  s2.synchronize();
}

TEST(Stream, CrossStreamOverlapOnOneDevice) {
  // Two streams on one device share the compute engine: total time is the
  // sum of kernel durations (plus latency), not the max.
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  platform p(1, d);
  stream s0(p), s1(p);
  p.launch_kernel(s0, {.name = "a", .fixed_seconds = 1.0}, {});
  p.launch_kernel(s1, {.name = "b", .fixed_seconds = 1.0}, {});
  p.synchronize();
  EXPECT_NEAR(p.now(), 2.0, 1e-9);
}

TEST(Stream, MultiDeviceKernelsOverlap) {
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  platform p(2, d);
  stream s0(p, 0), s1(p, 1);
  p.launch_kernel(s0, {.name = "a", .fixed_seconds = 1.0}, {});
  p.launch_kernel(s1, {.name = "b", .fixed_seconds = 1.0}, {});
  p.synchronize();
  EXPECT_NEAR(p.now(), 1.0, 1e-9);
}

TEST(Stream, ComputeAndCopyOverlap) {
  device_desc d = small_desc();
  d.launch_latency = 0.0;
  d.host_link_bw = 1e9;
  platform p(1, d);
  stream sk(p), sc(p);
  std::vector<char> buf(1 << 20);
  void* dev = p.malloc_async(buf.size(), sc);
  p.launch_kernel(sk, {.name = "k", .fixed_seconds = 0.01}, {});
  p.memcpy_async(dev, buf.data(), buf.size(), memcpy_kind::host_to_device, sc);
  p.synchronize();
  // Copy takes ~1.05ms, kernel 10ms; they overlap on separate engines.
  EXPECT_LT(p.now(), 0.0115);
  p.free_async(dev, sc);
  p.synchronize();
}

TEST(Stream, HostFuncRunsInOrder) {
  platform p(1, small_desc());
  stream s(p);
  std::vector<int> order;
  p.launch_kernel(s, {.name = "k"}, [&] { order.push_back(0); });
  p.launch_host_func(s, [&] { order.push_back(1); });
  p.launch_kernel(s, {.name = "k2"}, [&] { order.push_back(2); });
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Stream, VirtualClockAccountsLaunchLatency) {
  device_desc d = small_desc();
  d.launch_latency = 1.0e-3;
  platform p(1, d);
  stream s(p);
  for (int i = 0; i < 10; ++i) {
    p.launch_kernel(s, {.name = "empty"}, {});
  }
  p.synchronize();
  EXPECT_NEAR(p.now(), 10.0e-3, 1e-9);
}

TEST(Stream, SetDeviceControlsDefaultStreamPlacement) {
  platform p(4, small_desc());
  p.set_device(2);
  stream s(p);
  EXPECT_EQ(s.device(), 2);
  EXPECT_EQ(p.current_device(), 2);
}

TEST(Stream, ScopedPlatformInstallsDefault) {
  scoped_platform sp(3, small_desc());
  EXPECT_EQ(default_platform().device_count(), 3);
}

TEST(Stream, ManyOpsGetReclaimed) {
  platform p(1, small_desc());
  stream s(p);
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 1000; ++i) {
      p.launch_kernel(s, {.name = "k"}, {});
    }
    p.synchronize();
  }
  EXPECT_EQ(p.ops_completed(), 20000u);
}

// --- handles that outlive their node (DESIGN.md §4b) ---
//
// synchronize() recycles every retired DES node into the slab pool, and the
// next submissions reuse them for unrelated ops. A handle taken before the
// recycle must keep reading as "completed" (event) or "no tail" (stream);
// it must never alias the op that now owns the node.

// Submits long kernels on `s` until every node retired so far has been
// reused: each pooled node now belongs to a pending op that ends after 1 s.
void reuse_pooled_nodes(platform& p, stream& s) {
  const std::uint64_t retired = p.ops_completed();
  while (p.nodes_pooled() < retired) {
    p.launch_kernel(s, {.name = "reuser", .fixed_seconds = 1.0}, {});
  }
}

TEST(Stream, EventOnRecycledNodeStaysComplete) {
  // Returns the virtual end time of a short kernel on device 1 that
  // follows (optionally) a wait on an event whose node has been recycled.
  const auto run = [](bool wait) {
    platform p(2, small_desc());
    stream s0(p, 0);
    stream s1(p, 1);
    event e(p);
    p.launch_kernel(s0, {.name = "k", .fixed_seconds = 1.0e-3}, {});
    e.record(s0);
    s0.synchronize();
    EXPECT_EQ(p.nodes_pooled(), 0u);
    reuse_pooled_nodes(p, s0);
    EXPECT_GE(p.nodes_pooled(), 1u);
    EXPECT_TRUE(e.query());
    if (wait) {
      s1.wait_event(e);
    }
    double t_end = -1.0;
    p.launch_kernel(s1, {.name = "next", .fixed_seconds = 1.0e-3},
                    [&] { t_end = p.now(); });
    s1.synchronize();
    EXPECT_TRUE(e.query());
    return t_end;
  };
  const double with_wait = run(true);
  EXPECT_DOUBLE_EQ(with_wait, run(false));
  EXPECT_LT(with_wait, 0.5);  // no edge to a 1 s reuser kernel
}

TEST(Stream, RecycledStreamTailAddsNoEdge) {
  // Returns the virtual end time of the next kernel on `sa` after its old
  // tail node was recycled and (optionally) reused by another stream's op.
  const auto run = [](bool reuse) {
    platform p(2, small_desc());
    stream sa(p, 1);
    stream sb(p, 0);
    p.launch_kernel(sa, {.name = "k", .fixed_seconds = 1.0e-3}, {});
    sa.synchronize();
    if (reuse) {
      reuse_pooled_nodes(p, sb);
    }
    double t_end = -1.0;
    p.launch_kernel(sa, {.name = "next", .fixed_seconds = 1.0e-3},
                    [&] { t_end = p.now(); });
    sa.synchronize();
    return t_end;
  };
  const double reused = run(true);
  EXPECT_DOUBLE_EQ(reused, run(false));
  EXPECT_LT(reused, 0.5);  // no edge to a 1 s reuser kernel
}

TEST(Stream, EventQueryMonotonicWhileNodesRecycle) {
  // One thread submits, records and synchronizes (recycling the nodes the
  // recorded events point at); another polls query() lock-free on every
  // event published so far. No event may ever go from true back to false.
  constexpr std::size_t n_events = 2000;
  platform p(1, small_desc());
  stream s(p);
  std::vector<std::unique_ptr<event>> events;
  events.reserve(n_events);
  for (std::size_t i = 0; i < n_events; ++i) {
    events.push_back(std::make_unique<event>(p));
  }
  std::atomic<std::size_t> published{0};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> regressions{0};

  std::thread poller([&] {
    std::vector<char> seen_true(n_events, 0);
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t n = published.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        const bool q = events[i]->query();
        if (seen_true[i] != 0 && !q) {
          regressions.fetch_add(1, std::memory_order_relaxed);
        }
        seen_true[i] = static_cast<char>(seen_true[i] != 0 || q);
      }
    }
  });
  std::thread submitter([&] {
    for (std::size_t i = 0; i < n_events; ++i) {
      p.launch_kernel(s, {.name = "k"}, {});
      events[i]->record(s);
      published.store(i + 1, std::memory_order_release);
      if (i % 16 == 15) {
        s.synchronize();
      }
    }
    s.synchronize();
  });
  submitter.join();
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GT(p.nodes_pooled(), 0u);
  for (std::size_t i = 0; i < n_events; ++i) {
    EXPECT_TRUE(events[i]->query()) << "event " << i;
  }
}

}  // namespace
