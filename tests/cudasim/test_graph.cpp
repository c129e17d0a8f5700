// Tests for simulated CUDA graphs: construction, instantiation, launch,
// exec-update, stream capture, graph-ordered memory nodes, and the
// latency advantage over stream launch.
#include <gtest/gtest.h>

#include <vector>

#include "cudasim/cudasim.hpp"

namespace {

using namespace cudasim;

device_desc gdesc() {
  device_desc d = test_desc();
  d.launch_latency = 10.0e-6;
  d.graph_node_latency = 1.0e-6;
  d.copy_latency = 0.0;
  d.alloc_latency = 0.0;
  return d;
}

TEST(Graph, BuildAndLaunchRunsBodies) {
  platform p(1, gdesc());
  graph g(p);
  std::vector<int> order;
  auto a = g.add_kernel_node({}, 0, {.name = "a"}, [&] { order.push_back(0); });
  auto b = g.add_kernel_node({a}, 0, {.name = "b"}, [&] { order.push_back(1); });
  g.add_kernel_node({b}, 0, {.name = "c"}, [&] { order.push_back(2); });
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Graph, LaunchTwiceRunsBodiesTwice) {
  platform p(1, gdesc());
  graph g(p);
  int hits = 0;
  g.add_kernel_node({}, 0, {.name = "a"}, [&] { ++hits; });
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(exec.launches(), 2u);
}

TEST(Graph, ForkJoinTopologyOverlaps) {
  device_desc d = gdesc();
  d.graph_node_latency = 0.0;
  platform p(2, d);
  graph g(p);
  auto root = g.add_kernel_node({}, 0, {.name = "r", .fixed_seconds = 1.0}, {});
  // Two 1s children on different devices overlap.
  auto l = g.add_kernel_node({root}, 0, {.name = "l", .fixed_seconds = 1.0}, {});
  auto r = g.add_kernel_node({root}, 1, {.name = "r2", .fixed_seconds = 1.0}, {});
  g.add_empty_node({l, r});
  graph_exec exec(g);
  stream s(p, 0);
  exec.launch(s);
  p.synchronize();
  EXPECT_NEAR(p.now(), 2.0, 1e-9);
}

TEST(Graph, GraphLaunchBeatsStreamLaunchForSmallKernels) {
  platform p(1, gdesc());
  const int n = 100;
  // Stream path.
  {
    stream s(p);
    for (int i = 0; i < n; ++i) {
      p.launch_kernel(s, {.name = "k", .fixed_seconds = 1e-6}, {});
    }
    p.synchronize();
  }
  const double stream_time = p.now();
  // Graph path on a fresh platform for a clean clock.
  platform p2(1, gdesc());
  {
    graph g(p2);
    graph_node prev{};
    for (int i = 0; i < n; ++i) {
      std::vector<graph_node> deps;
      if (prev.valid()) {
        deps.push_back(prev);
      }
      prev = g.add_kernel_node(deps, 0, {.name = "k", .fixed_seconds = 1e-6}, {});
    }
    graph_exec exec(g);
    stream s(p2);
    exec.launch(s);
    p2.synchronize();
  }
  const double graph_time = p2.now();
  EXPECT_LT(graph_time, stream_time * 0.35);  // 11us vs 2us per kernel
}

TEST(Graph, ExecUpdateAcceptsSameTopology) {
  platform p(1, gdesc());
  graph g1(p);
  int first = 0, second = 0;
  auto a = g1.add_kernel_node({}, 0, {.name = "a"}, [&] { ++first; });
  g1.add_kernel_node({a}, 0, {.name = "b"}, [&] { ++first; });
  graph_exec exec(g1);
  const double inst_cost = exec.last_build_cost_seconds();

  graph g2(p);
  auto a2 = g2.add_kernel_node({}, 0, {.name = "a"}, [&] { ++second; });
  g2.add_kernel_node({a2}, 0, {.name = "b"}, [&] { ++second; });
  EXPECT_TRUE(exec.update(g2));
  EXPECT_LT(exec.last_build_cost_seconds(), inst_cost * 0.2);

  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(first, 0);   // old bodies were swapped out
  EXPECT_EQ(second, 2);  // new parameters took effect
}

TEST(Graph, ExecUpdateRejectsDifferentTopology) {
  platform p(1, gdesc());
  graph g1(p);
  auto a = g1.add_kernel_node({}, 0, {.name = "a"}, {});
  g1.add_kernel_node({a}, 0, {.name = "b"}, {});
  graph_exec exec(g1);

  graph g2(p);  // three nodes instead of two
  auto a2 = g2.add_kernel_node({}, 0, {.name = "a"}, {});
  auto b2 = g2.add_kernel_node({a2}, 0, {.name = "b"}, {});
  g2.add_kernel_node({b2}, 0, {.name = "c"}, {});
  EXPECT_FALSE(exec.update(g2));

  graph g3(p);  // same count, different edges
  g3.add_kernel_node({}, 0, {.name = "a"}, {});
  g3.add_kernel_node({}, 0, {.name = "b"}, {});
  EXPECT_FALSE(exec.update(g3));
}

TEST(Graph, MemAllocNodeProvidesUsableBuffer) {
  platform p(1, gdesc());
  graph g(p);
  void* buf = nullptr;
  auto alloc = g.add_mem_alloc_node({}, 0, 1024, &buf);
  ASSERT_NE(buf, nullptr);
  ASSERT_TRUE(alloc.valid());
  double* data = static_cast<double*>(buf);
  auto k = g.add_kernel_node({alloc}, 0, {.name = "fill"},
                             [data] { data[0] = 42.0; });
  g.add_mem_free_node({k}, 0, buf);
  EXPECT_GT(p.device(0).pool_used(), 0u);
  graph_exec exec(g);
  stream s(p);
  exec.launch(s);
  s.synchronize();
  EXPECT_DOUBLE_EQ(data[0], 42.0);
  g.release_resources();
  EXPECT_EQ(p.device(0).pool_used(), 0u);
}

TEST(Graph, MemAllocNodeHonorsCapacity) {
  device_desc d = gdesc();
  d.mem_capacity = 1 << 20;
  platform p(1, d);
  graph g(p);
  void* buf = nullptr;
  auto n = g.add_mem_alloc_node({}, 0, 2 << 20, &buf);
  EXPECT_EQ(buf, nullptr);
  EXPECT_FALSE(n.valid());
}

TEST(Graph, StreamCaptureRecordsKernelChain) {
  platform p(1, gdesc());
  graph g(p);
  stream s(p);
  int hits = 0;
  s.begin_capture(g);
  p.launch_kernel(s, {.name = "a"}, [&] { ++hits; });
  p.launch_kernel(s, {.name = "b"}, [&] { ++hits; });
  p.launch_host_func(s, [&] { ++hits; });
  s.end_capture();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(hits, 0);  // nothing executed during capture
  graph_exec exec(g);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(hits, 3);
}

TEST(Graph, CaptureMemcpyAndAlloc) {
  platform p(1, gdesc());
  graph g(p);
  stream s(p);
  std::vector<double> host{1.0, 2.0, 3.0};
  std::vector<double> back(3, 0.0);
  s.begin_capture(g);
  void* dev = p.malloc_async(3 * sizeof(double), s);
  ASSERT_NE(dev, nullptr);
  p.memcpy_async(dev, host.data(), 3 * sizeof(double),
                 memcpy_kind::host_to_device, s);
  p.memcpy_async(back.data(), dev, 3 * sizeof(double),
                 memcpy_kind::device_to_host, s);
  p.free_async(dev, s);
  s.end_capture();
  graph_exec exec(g);
  exec.launch(s);
  s.synchronize();
  EXPECT_EQ(back, host);
}

TEST(Graph, AbandonedTemplateReturnsPoolSpace) {
  platform p(1, gdesc());
  {
    graph g(p);
    void* buf = nullptr;
    g.add_mem_alloc_node({}, 0, 1 << 20, &buf);
    EXPECT_EQ(p.device(0).pool_used(), 1u << 20);
  }
  EXPECT_EQ(p.device(0).pool_used(), 0u);
}


// --- the two launch paths agree ---
//
// With graph_node_latency == launch_latency the only modelled difference
// between a stream submission and the same op captured into a graph and
// launched is gone, so both paths must finish at the same virtual time and
// deliver the same bytes, op kind by op kind.

device_desc parity_desc() {
  device_desc d = test_desc();
  d.graph_node_latency = d.launch_latency;
  d.copy_latency = 2.0e-6;
  d.alloc_latency = 3.0e-6;
  return d;
}

// Runs `ops` on two streams (devices 0 and 1) of a fresh three-device
// platform, either directly or captured from both streams into one graph
// that is then instantiated and launched on the first stream. Returns the
// virtual time once everything completed.
template <class Ops>
double run_parity(bool as_graph, Ops&& ops) {
  platform p(3, parity_desc());
  stream s0(p, 0);
  stream s1(p, 1);
  if (!as_graph) {
    ops(p, s0, s1);
  } else {
    graph g(p);
    s0.begin_capture(g);
    s1.begin_capture(g);
    ops(p, s0, s1);
    s0.end_capture();
    s1.end_capture();
    graph_exec exec(g);
    exec.launch(s0);
    p.synchronize();
  }
  p.synchronize();
  EXPECT_EQ(s0.status(), sim_status::success);
  EXPECT_EQ(s1.status(), sim_status::success);
  return p.now();
}

TEST(GraphParity, KernelMatchesStreamLaunch) {
  double t[2];
  for (int as_graph = 0; as_graph < 2; ++as_graph) {
    int hits = 0;
    t[as_graph] = run_parity(as_graph == 1, [&](platform& p, stream& s0,
                                                stream& s1) {
      p.launch_kernel(s0, {.name = "a", .flops = 2.0e6, .bytes = 1.0e5},
                      [&] { ++hits; });
      p.launch_kernel(s0, {.name = "b", .bytes = 3.0e6}, [&] { ++hits; });
      p.launch_kernel(s1, {.name = "c", .fixed_seconds = 4.0e-6},
                      [&] { ++hits; });
    });
    EXPECT_EQ(hits, 3);
  }
  EXPECT_GT(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST(GraphParity, MemcpyAllDirectionsMatchStream) {
  constexpr std::size_t n = 4096;
  double t[2];
  for (int as_graph = 0; as_graph < 2; ++as_graph) {
    std::vector<double> host(n), dev(n, 0.0), dev2(n, 0.0), back(n, 0.0),
        host2(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      host[i] = 0.5 * static_cast<double>(i);
    }
    const std::size_t bytes = n * sizeof(double);
    t[as_graph] = run_parity(as_graph == 1, [&](platform& p, stream& s0,
                                                stream& s1) {
      p.memcpy_async(dev.data(), host.data(), bytes,
                     memcpy_kind::host_to_device, s0);
      p.memcpy_async(dev2.data(), dev.data(), bytes,
                     memcpy_kind::device_to_device, s0);
      p.memcpy_async(back.data(), dev2.data(), bytes,
                     memcpy_kind::device_to_host, s0);
      p.memcpy_async(host2.data(), host.data(), bytes,
                     memcpy_kind::host_to_host, s1);
    });
    EXPECT_EQ(dev, host);
    EXPECT_EQ(dev2, host);
    EXPECT_EQ(back, host);
    EXPECT_EQ(host2, host);
  }
  EXPECT_GT(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST(GraphParity, PeerCopiesIntoOneDeviceSerializeInBothPaths) {
  constexpr std::size_t n = 1 << 16;
  const std::size_t bytes = n * sizeof(double);
  const device_desc d = parity_desc();
  const double one = d.copy_latency + static_cast<double>(bytes) / d.p2p_bw;
  double t[2];
  for (int as_graph = 0; as_graph < 2; ++as_graph) {
    std::vector<double> a(n, 1.0), b(n, 2.0), da(n, 0.0), db(n, 0.0);
    t[as_graph] = run_parity(as_graph == 1, [&](platform& p, stream& s0,
                                                stream& s1) {
      // Two independent peer copies (devices 0 and 1) into device 2: they
      // share its copy_in engine, so they run back to back.
      p.memcpy_peer_async(da.data(), 2, a.data(), 0, bytes, s0);
      p.memcpy_peer_async(db.data(), 2, b.data(), 1, bytes, s1);
    });
    EXPECT_EQ(da, a);
    EXPECT_EQ(db, b);
  }
  EXPECT_NEAR(t[0], 2.0 * one, 1e-12);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST(GraphParity, MemAllocFreeMatchesStream) {
  constexpr std::size_t n = 512;
  const std::size_t bytes = n * sizeof(double);
  double t[2];
  for (int as_graph = 0; as_graph < 2; ++as_graph) {
    std::vector<double> host(n, 7.0), back(n, 0.0);
    t[as_graph] = run_parity(as_graph == 1, [&](platform& p, stream& s0,
                                                stream& s1) {
      void* buf = p.malloc_async(bytes, s0);
      ASSERT_NE(buf, nullptr);
      p.memcpy_async(buf, host.data(), bytes, memcpy_kind::host_to_device, s0);
      p.memcpy_async(back.data(), buf, bytes, memcpy_kind::device_to_host, s0);
      p.free_async(buf, s0);
      void* other = p.malloc_async(64, s1);
      ASSERT_NE(other, nullptr);
      p.free_async(other, s1);
    });
    EXPECT_EQ(back, host);
  }
  EXPECT_GT(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST(GraphParity, HostFuncMatchesStream) {
  double t[2];
  for (int as_graph = 0; as_graph < 2; ++as_graph) {
    std::vector<int> order;
    t[as_graph] = run_parity(as_graph == 1, [&](platform& p, stream& s0,
                                                stream& s1) {
      p.launch_kernel(s0, {.name = "k", .fixed_seconds = 1.0e-6},
                      [&] { order.push_back(0); });
      p.launch_host_func(s0, [&] { order.push_back(1); }, 2.5e-6);
      p.launch_host_func(s1, [] {}, 1.5e-6);
    });
    ASSERT_GE(order.size(), 2u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
  }
  EXPECT_GT(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[0], t[1]);
}

TEST(GraphParity, FailedPeerEndpointRefusesGraphLikeStreamCopy) {
  constexpr std::size_t n = 256;
  const std::size_t bytes = n * sizeof(double);
  platform p(2, parity_desc());
  std::vector<double> src(n, 3.0), dst(n, 0.0), out(n, 0.0);
  graph g(p);
  g.add_memcpy_peer_node({}, dst.data(), 1, src.data(), 0, bytes);
  graph_exec exec(g);
  p.fail_device(1);

  // The whole launch is refused: one of its peer copies lands on the
  // failed device, exactly as a stream peer copy toward it is.
  stream s0(p, 0);
  exec.launch(s0);
  EXPECT_EQ(s0.status(), sim_status::error_device_lost);
  stream s0b(p, 0);
  p.memcpy_peer_async(dst.data(), 1, src.data(), 0, bytes, s0b);
  EXPECT_EQ(s0b.status(), sim_status::error_device_lost);
  p.synchronize();
  EXPECT_EQ(exec.launches(), 0u);
  EXPECT_EQ(dst[0], 0.0);

  // The evacuation grace still holds: a device_to_host copy off the failed
  // device runs.
  stream s1(p, 1);
  p.memcpy_async(out.data(), src.data(), bytes, memcpy_kind::device_to_host,
                 s1);
  EXPECT_EQ(s1.status(), sim_status::success);
  s1.synchronize();
  EXPECT_EQ(out, src);
}

}  // namespace
