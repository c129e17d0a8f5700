// Topology-aware transfer engine (DESIGN.md §6): min-cost source routing,
// broadcast trees, chunked/pipelined copies, in-flight coalescing and
// peer-staged eviction — each observed through the planner counters, the
// instances' fill bookkeeping and the virtual clock, against the planner
// switched off.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cudastf/cudastf.hpp"
#include "cudastf/transfer.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc tdesc() {
  auto d = cudasim::test_desc();
  d.mem_capacity = 256u << 20;
  return d;
}

// --- (a) min-cost source selection -----------------------------------------

// After a device write and a host read-back, valid copies live on device 0
// AND the host. The p2p link (25 GB/s) beats the host link (10 GB/s), so a
// read on device 1 must source the peer — the legacy protocol order picked
// the most recently created valid instance, i.e. the host.
TEST(TransferRouting, PicksPeerOverHost) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t n = 1 << 16;  // 512 KiB: bandwidth dominates latency
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 1.0; };
  double seen = 0.0;
  ctx.host_launch(lX.read())->*[&seen](slice<const double> x) { seen = x(0); };
  p.synchronize();  // settle the host fill so only link costs matter

  const backend_stats before = ctx.stats();
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};
  // p2p beats the host link: the fill crossed the peer link only.
  EXPECT_GE(ctx.stats().p2p_bytes - before.p2p_bytes, n * sizeof(double));
  EXPECT_EQ(ctx.stats().host_link_bytes, before.host_link_bytes);
  ctx.finalize();
  EXPECT_DOUBLE_EQ(seen, 1.0);
}

TEST(TransferRouting, DisabledFallsBackToProtocolOrder) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.transfer_options().planner = false;
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 1.0; };
  ctx.host_launch(lX.read())->*[](slice<const double>) {};
  p.synchronize();

  const backend_stats before = ctx.stats();
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};
  // Legacy order lands on the host: the fill crossed the host link only.
  EXPECT_EQ(ctx.stats().host_link_bytes - before.host_link_bytes,
            n * sizeof(double));
  EXPECT_EQ(ctx.stats().p2p_bytes, before.p2p_bytes);
  ctx.finalize();
}

// --- (b) broadcast trees ---------------------------------------------------

// The source device each of devices 1..ndev-1 was filled from, read from
// the instances' fill bookkeeping (-1 = host).
std::vector<int> fill_sources(logical_data<slice<double>>& l, int ndev) {
  logical_data_impl& d = *l.impl();
  detail::structural_lock lock(d.ctx());
  std::vector<int> out;
  for (int dev = 1; dev < ndev; ++dev) {
    const data_instance* inst = d.find_instance(data_place::device(dev));
    out.push_back(inst != nullptr ? inst->fill_src_device : -2);
  }
  return out;
}

// One producer, seven consumers submitted back to back: the fills must fan
// out over at least two distinct sources (instances just becoming valid are
// admissible), not serialize on device 0's copy engine.
TEST(TransferBroadcast, TreeUsesMultipleSources) {
  cudasim::scoped_platform sp(8, tdesc());
  cudasim::platform& p = sp.get();
  p.set_copy_payloads(false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  constexpr std::size_t n = 1 << 22;  // 32 MiB
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};
  for (int d = 1; d < 8; ++d) {
    ctx.task(exec_place::device(d), lX.read())->*
        [](cudasim::stream&, slice<const double>) {};
  }
  const std::vector<int> filled_from = fill_sources(lX, 8);
  ctx.finalize();

  const std::set<int> sources(filled_from.begin(), filled_from.end());
  EXPECT_GE(sources.size(), 2u);
  EXPECT_GE(ctx.stats().broadcast_fanout, 1u);
}

// Planner off: no tree edges are planned. Each fill takes the protocol's
// source, the most recently created valid copy, i.e. the consumer filled
// just before it, and waits for that whole monolithic copy, so the
// broadcast runs one copy after another down from the root.
TEST(TransferBroadcast, TreeDisabledSerializesOnRoot) {
  cudasim::scoped_platform sp(8, tdesc());
  cudasim::platform& p = sp.get();
  p.set_copy_payloads(false);
  context ctx(p);
  ctx.set_compute_payloads(false);
  ctx.transfer_options().planner = false;
  constexpr std::size_t n = 1 << 22;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};
  for (int d = 1; d < 8; ++d) {
    ctx.task(exec_place::device(d), lX.read())->*
        [](cudasim::stream&, slice<const double>) {};
  }
  const std::vector<int> filled_from = fill_sources(lX, 8);
  ctx.finalize();

  for (int d = 1; d < 8; ++d) {
    EXPECT_EQ(filled_from[static_cast<std::size_t>(d - 1)], d - 1);
  }
  EXPECT_EQ(ctx.stats().broadcast_fanout, 0u);
}

// The whole point, on the virtual clock: tree + pipelined chunks beat the
// planner-off broadcast, which moves one monolithic copy after another.
TEST(TransferBroadcast, FasterThanStar) {
  auto run = [](bool planner_on) {
    cudasim::scoped_platform sp(8, cudasim::a100_desc());
    cudasim::platform& p = sp.get();
    p.set_copy_payloads(false);
    context ctx(p);
    ctx.set_compute_payloads(false);
    ctx.transfer_options().planner = planner_on;
    ctx.transfer_options().chunk_bytes = 8u << 20;  // pipeline 64 MiB
    constexpr std::size_t n = 1 << 23;  // 64 MiB
    auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
    ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
            ->*[](std::size_t, slice<double>) {};
    ctx.fence();
    p.synchronize();
    const double t0 = p.now();
    for (int d = 1; d < 8; ++d) {
      ctx.task(exec_place::device(d), lX.read())->*
          [](cudasim::stream&, slice<const double>) {};
    }
    ctx.finalize();
    return p.now() - t0;
  };
  const double t_on = run(true);
  const double t_off = run(false);
  EXPECT_LT(t_on, t_off * 0.8);
}

// --- (d) in-flight coalescing ----------------------------------------------

// A fill whose instance was re-invalidated (the fault path's MSI rollback
// does exactly this) but whose copy is still in flight and still delivers
// the current contents is joined, not duplicated.
TEST(TransferCoalesce, JoinsInFlightFill) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 2.0; };
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};  // issues the fill

  logical_data_impl& d = *lX.impl();
  context_state& st = d.ctx();
  {
    detail::structural_lock lock(st);
    data_instance* inst = d.find_instance(data_place::device(1));
    ASSERT_NE(inst, nullptr);
    ASSERT_TRUE(inst->fill_pending);
    inst->state = msi_state::invalid;  // simulate a recovery rollback
    EXPECT_TRUE(request_transfer(st, d, *inst));
    EXPECT_EQ(inst->state, msi_state::shared);
  }
  EXPECT_EQ(ctx.stats().copies_coalesced, 1u);
  ctx.finalize();
}

TEST(TransferCoalesce, DisabledReissues) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().planner = false;
  constexpr std::size_t n = 1 << 16;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) { x(i) = 2.0; };
  ctx.task(exec_place::device(1), lX.read())->*
      [](cudasim::stream&, slice<const double>) {};

  logical_data_impl& d = *lX.impl();
  context_state& st = d.ctx();
  {
    detail::structural_lock lock(st);
    data_instance* inst = d.find_instance(data_place::device(1));
    ASSERT_NE(inst, nullptr);
    inst->state = msi_state::invalid;
    EXPECT_TRUE(request_transfer(st, d, *inst));
  }
  EXPECT_EQ(ctx.stats().copies_coalesced, 0u);
  // The duplicate copy was issued: the device 0 -> 1 fill crossed twice.
  EXPECT_EQ(ctx.stats().p2p_bytes, 2 * n * sizeof(double));
  ctx.finalize();
}

// --- (c) chunked, pipelined copies -----------------------------------------

TEST(TransferChunking, PreservesNumericsAndCounts) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().chunk_bytes = 4096;
  constexpr std::size_t n = 4096;  // 32 KiB / 4 KiB -> 8 chunks per copy
  std::vector<double> host(n);
  for (std::size_t i = 0; i < n; ++i) {
    host[i] = static_cast<double>(i);
  }
  auto lX = ctx.logical_data(host.data(), n, "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.rw())
          ->*[](std::size_t i, slice<double> x) { x(i) += 1.0; };
  ctx.finalize();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(host[i], static_cast<double>(i) + 1.0) << "i=" << i;
  }
  // 8 chunks up (host -> device) + 8 chunks back at write-back.
  EXPECT_EQ(ctx.stats().chunks_issued, 16u);
}

TEST(TransferChunking, DisabledIssuesMonolithicCopy) {
  cudasim::scoped_platform sp(1, tdesc());
  context ctx(sp.get());
  ctx.transfer_options().planner = false;
  ctx.transfer_options().chunk_bytes = 4096;  // ignored with the planner off
  constexpr std::size_t n = 4096;
  std::vector<double> host(n, 3.0);
  auto lX = ctx.logical_data(host.data(), n, "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.rw())
          ->*[](std::size_t i, slice<double> x) { x(i) += 1.0; };
  ctx.finalize();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(host[i], 4.0);
  }
  EXPECT_EQ(ctx.stats().chunks_issued, 0u);
}

// --- peer-staged eviction --------------------------------------------------

TEST(TransferEviction, PrefersPeerWithHeadroom) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  p.device(0).set_pool_capacity(10u << 20);  // fits one 8 MiB buffer
  context ctx(p);
  constexpr std::size_t n = 1 << 20;  // 8 MiB of doubles
  auto lA = ctx.logical_data<double, 1>(box<1>(n), "A");
  auto lB = ctx.logical_data<double, 1>(box<1>(n), "B");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lA.write())
          ->*[](std::size_t i, slice<double> a) {
            a(i) = static_cast<double>(i % 13);
          };
  // Allocating B on device 0 must evict A — whose sole (modified) copy is
  // staged to device 1 over the p2p link, not round-tripped via the host.
  ctx.parallel_for(exec_place::device(0), box<1>(n), lB.write())
          ->*[](std::size_t, slice<double>) {};
  EXPECT_GE(ctx.stats().evictions, 1u);
  EXPECT_GE(ctx.stats().p2p_bytes, n * sizeof(double));
  EXPECT_EQ(ctx.stats().host_link_bytes, 0u);

  // The staged copy must still hold A's contents.
  bool ok = true;
  ctx.host_launch(lA.read())->*[&ok, n](slice<const double> a) {
    for (std::size_t i = 0; i < n; i += 997) {
      ok = ok && a(i) == static_cast<double>(i % 13);
    }
  };
  ctx.finalize();
  EXPECT_TRUE(ok);
}

TEST(TransferEviction, DisabledStagesToHost) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  p.device(0).set_pool_capacity(10u << 20);
  context ctx(p);
  ctx.transfer_options().planner = false;
  constexpr std::size_t n = 1 << 20;
  auto lA = ctx.logical_data<double, 1>(box<1>(n), "A");
  auto lB = ctx.logical_data<double, 1>(box<1>(n), "B");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lA.write())
          ->*[](std::size_t i, slice<double> a) {
            a(i) = static_cast<double>(i % 13);
          };
  ctx.parallel_for(exec_place::device(0), box<1>(n), lB.write())
          ->*[](std::size_t, slice<double>) {};
  EXPECT_GE(ctx.stats().evictions, 1u);
  EXPECT_GE(ctx.stats().host_link_bytes, n * sizeof(double));
  EXPECT_EQ(ctx.stats().p2p_bytes, 0u);
  ctx.finalize();
}

// --- fault interaction -----------------------------------------------------

// A transient link error hitting a broadcast fill is absorbed by the retry
// loop: the run recovers fully and every consumer still sees the data.
TEST(TransferFaults, FaultedBroadcastRecovers) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::link_error, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr std::size_t n = 1 << 14;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) {
            x(i) = static_cast<double>(i);
          };
  std::vector<double> firsts(4, -1.0);
  for (int d = 1; d < 4; ++d) {
    auto lout = ctx.logical_data(firsts.data() + d, 1, "out");
    ctx.task(exec_place::device(d), lX.read(), lout.write())->*
        [&p](cudasim::stream& s, slice<const double> x, slice<double> o) {
          p.launch_kernel(s, {.name = "probe"}, [=] { o(0) = x(100); });
        };
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.tasks_retried, 1u);
  for (int d = 1; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(firsts[static_cast<std::size_t>(d)], 100.0);
  }
}

// --- HEFT interaction (satellite: p2p-aware transfer estimate) -------------

// Data held by a busy device: the old placement model priced any remote
// fetch at host-link rates with the data assumed instantly available, so a
// loaded holder pushed the task to an idle device. The fixed model charges
// the p2p rate AND the holder's queue (the copy cannot start earlier), so
// the task stays with its data.
TEST(TransferHeft, ChargesP2pAndReadinessForPeerResidentSource) {
  cudasim::scoped_platform sp(2, tdesc());
  context ctx(sp.get());
  constexpr std::size_t n = 1 << 20;  // 8 MiB: host-link fetch ~ 840 us
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t, slice<double>) {};

  context_state& st = lX.impl()->ctx();
  {
    detail::structural_lock lock(st);
    // Busier than an old-model migration (2 ms > 840 us + work), idle peer.
    st.heft_load = {2.0e-3, 0.0};
  }
  int chosen = -1;
  ctx.task(exec_place::automatic(), lX.rw())->*
      [&chosen](cudasim::stream& s, slice<double>) { chosen = s.device(); };
  ctx.finalize();
  EXPECT_EQ(chosen, 0);  // stays with the data
}

// --- graph backend smoke ---------------------------------------------------

// Graph-node events never report completion before launch, so the planner
// stays conservative under the graph backend — but routing, chunking and
// the peer-copy graph nodes must still produce correct results.
TEST(TransferGraphBackend, BroadcastCorrectUnderGraphs) {
  cudasim::scoped_platform sp(4, tdesc());
  cudasim::platform& p = sp.get();
  context ctx = context::graph(p);
  ctx.transfer_options().chunk_bytes = 4096;
  constexpr std::size_t n = 1 << 12;
  auto lX = ctx.logical_data<double, 1>(box<1>(n), "X");
  ctx.parallel_for(exec_place::device(0), box<1>(n), lX.write())
          ->*[](std::size_t i, slice<double> x) {
            x(i) = static_cast<double>(2 * i);
          };
  std::vector<double> probes(4, -1.0);
  for (int d = 1; d < 4; ++d) {
    auto lout = ctx.logical_data(probes.data() + d, 1, "out");
    ctx.task(exec_place::device(d), lX.read(), lout.write())->*
        [&p](cudasim::stream& s, slice<const double> x, slice<double> o) {
          p.launch_kernel(s, {.name = "probe"}, [=] { o(0) = x(7); });
        };
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  for (int d = 1; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(probes[static_cast<std::size_t>(d)], 14.0);
  }
}

}  // namespace
