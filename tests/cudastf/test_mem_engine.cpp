// Out-of-core memory engine (DESIGN.md §9): caching suballocator,
// lookahead-aware victim selection, trim-under-pressure, prefetch-back —
// and their interaction with fault injection.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "blaslib/tiled_cholesky.hpp"
#include "cudastf/cudastf.hpp"
#include "cudastf/mem_engine.hpp"

namespace {

using namespace cudastf;

cudasim::device_desc small_pool_desc(std::size_t cap) {
  auto d = cudasim::test_desc();
  d.mem_capacity = cap;
  return d;
}

TEST(MemEngine, SizeClassRounding) {
  // 256-byte floor; powers of two are their own class; spacing <= 12.5%.
  EXPECT_EQ(mem_size_class(1), 256u);
  EXPECT_EQ(mem_size_class(256), 256u);
  EXPECT_EQ(mem_size_class(1u << 20), 1u << 20);
  for (std::size_t b : {300u, 777u, 4097u, 100000u, (3u << 20) + 1}) {
    const std::size_t c = mem_size_class(b);
    EXPECT_GE(c, b);
    EXPECT_LE(c - b, b / 8) << b;  // at most one 12.5% class step of waste
  }
}

TEST(MemEngine, EvictedBlocksAreRecycledAsCacheHits) {
  // 6 same-size blocks cycled through a pool that holds 4: every eviction
  // parks a block that the next same-class allocation recycles without a
  // platform malloc round-trip.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr int blocks = 6;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<std::vector<double>> host(blocks,
                                        std::vector<double>(elems, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int b = 0; b < blocks; ++b) {
    data.push_back(ctx.logical_data(host[b].data(), elems, "blk"));
  }
  for (int b = 0; b < blocks; ++b) {
    ctx.task(data[b].rw())->*[&p, b](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "fill"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) = double(b + 1);
        }
      });
    };
  }
  ctx.finalize();
  EXPECT_GT(ctx.stats().evictions, 0u);
  EXPECT_GT(ctx.stats().alloc_cache_hits, 0u);
  EXPECT_GE(ctx.stats().alloc_cache_bytes_reused,
            ctx.stats().alloc_cache_hits * (1u << 20));
  for (int b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(host[b][0], double(b + 1)) << b;
  }
}

TEST(MemEngine, TrimReturnsCachedBlocksBeforeOom) {
  // Fill the pool with 1 MB blocks, evict them into the cache, then ask
  // for one 3 MB block: no 3 MB bin exists, so the allocator must trim the
  // mismatched cached blocks back to the platform instead of reporting a
  // spurious OOM.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  context ctx(p);
  ctx.set_compute_payloads(false);
  constexpr std::size_t small_elems = (1u << 20) / sizeof(double);
  std::vector<logical_data<slice<double>>> small;
  for (int b = 0; b < 4; ++b) {
    small.push_back(ctx.logical_data<double, 1>(box<1>(small_elems), "s"));
    ctx.task(small.back().write())->*[](cudasim::stream&, slice<double>) {};
  }
  constexpr std::size_t big_elems = (3u << 20) / sizeof(double);
  auto big = ctx.logical_data<double, 1>(box<1>(big_elems), "big");
  ctx.task(big.write())->*[](cudasim::stream&, slice<double>) {};
  EXPECT_GE(ctx.stats().pool_trims, 1u);

  // Genuine exhaustion still surfaces: larger than the whole pool.
  auto huge = ctx.logical_data<double, 1>(
      box<1>((5u << 20) / sizeof(double)), "huge");
  EXPECT_THROW(ctx.task(huge.write())->*[](cudasim::stream&, slice<double>) {},
               std::bad_alloc);
  ctx.finalize();
}

TEST(MemEngine, CleanVictimsPreferredOverDirty) {
  // Resident: A dirty (oldest), B and D clean (younger, the host holds
  // valid copies). An OOM round evicts a batch of two: pure LRU would take
  // A and pay a 1 MB write-back; lookahead scoring drops B and D for free.
  cudasim::scoped_platform sp(1, small_pool_desc((3u << 20) + (64u << 10)));
  cudasim::platform& p = sp.get();
  context ctx(p);
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<double> a(elems, 0.0), b(elems, 7.0), d(elems, 9.0);
  auto la = ctx.logical_data(a.data(), elems, "a");
  auto lb = ctx.logical_data(b.data(), elems, "b");
  auto ld = ctx.logical_data(d.data(), elems, "d");
  auto lc = ctx.logical_data<double, 1>(box<1>(elems), "c");
  ctx.task(la.rw())->*[&p](cudasim::stream& s, slice<double> v) {
    p.launch_kernel(s, {.name = "dirty"}, [=] { v(0) = 42.0; });
  };
  ctx.task(lb.read())->*[](cudasim::stream&, slice<const double>) {};
  ctx.task(ld.read())->*[](cudasim::stream&, slice<const double>) {};
  const std::uint64_t link_before = ctx.stats().host_link_bytes;
  // Fourth 1 MB allocation: two of A/B/D must go.
  ctx.task(lc.write())->*[](cudasim::stream&, slice<double>) {};
  EXPECT_EQ(ctx.stats().evictions, 2u);
  EXPECT_EQ(ctx.stats().clean_drops, 2u);
  EXPECT_GE(ctx.stats().writebacks_avoided, 1u);
  // A was not evicted: no write-back bytes crossed the host link.
  EXPECT_EQ(ctx.stats().host_link_bytes, link_before);
  ctx.finalize();
  EXPECT_DOUBLE_EQ(a[0], 42.0);  // the dirty copy survived untouched
  EXPECT_DOUBLE_EQ(b[0], 7.0);
  EXPECT_DOUBLE_EQ(d[0], 9.0);
}

TEST(MemEngine, PinnedInstancesNeverEvictedEvenWithCache) {
  // A task's own dependencies are pinned while it acquires: three 1 MB
  // deps against a 2 MB pool can never fit, cache or no cache.
  cudasim::scoped_platform sp(1, small_pool_desc(2u << 20));
  context ctx(sp.get());
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  auto la = ctx.logical_data<double, 1>(box<1>(elems), "a");
  auto lb = ctx.logical_data<double, 1>(box<1>(elems), "b");
  auto lc = ctx.logical_data<double, 1>(box<1>(elems), "c");
  EXPECT_THROW(ctx.task(la.write(), lb.write(), lc.write())->*
                   [](cudasim::stream&, slice<double>, slice<double>,
                      slice<double>) {},
               std::bad_alloc);
  ctx.finalize();
}

TEST(MemEngine, PrefetchBackBitIdenticalCholesky) {
  // A tiled Cholesky whose working set overflows the pool (eviction,
  // recycling and prefetch-back all engage), run against the same
  // factorization on an uncapped pool that never evicts. The results must
  // agree bit for bit.
  constexpr std::size_t n = 256, block = 64;
  const auto run = [&](bool capped, backend_stats* out) {
    cudasim::scoped_platform sp(
        1, capped ? small_pool_desc(160u << 10) : cudasim::test_desc());
    context ctx(sp.get());
    blaslib::tile_matrix m(n, block);
    // Deterministic SPD fill: diagonally dominant.
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        dense[i * n + j] = (i == j) ? double(n) + 1.0
                                    : 1.0 / double(i + j + 1);
      }
    }
    m.import_dense(dense.data());
    blaslib::tiled_cholesky_stf(ctx, m, {.block = block});
    ctx.finalize();
    if (out != nullptr) {
      *out = ctx.stats();
    }
    std::vector<double> l(n * n, 0.0);
    m.export_dense(l.data());
    return l;
  };
  backend_stats capped{}, uncapped{};
  const std::vector<double> out_of_core = run(true, &capped);
  const std::vector<double> in_core = run(false, &uncapped);
  EXPECT_GT(capped.evictions, 0u);
  EXPECT_EQ(uncapped.evictions, 0u);
  EXPECT_EQ(std::memcmp(out_of_core.data(), in_core.data(),
                        out_of_core.size() * sizeof(double)),
            0);
}

TEST(MemEngine, InjectedAllocFaultRetriedThroughCache) {
  // An injected allocation fault fires on the platform path; cache hits
  // bypass it entirely. The run must absorb the fault, keep recycling, and
  // produce correct data.
  cudasim::scoped_platform sp(1, small_pool_desc(4u << 20));
  cudasim::platform& p = sp.get();
  p.ensure_fault_injector().schedule(
      {.kind = cudasim::fault_kind::alloc_fail, .device = -1, .at_op = 0});
  context ctx(p);
  constexpr int blocks = 6;
  constexpr std::size_t elems = (1u << 20) / sizeof(double);
  std::vector<std::vector<double>> host(blocks,
                                        std::vector<double>(elems, 0.0));
  std::vector<logical_data<slice<double>>> data;
  for (int b = 0; b < blocks; ++b) {
    data.push_back(ctx.logical_data(host[b].data(), elems, "blk"));
  }
  for (int b = 0; b < blocks; ++b) {
    ctx.task(data[b].rw())->*[&p, b](cudasim::stream& s, slice<double> v) {
      p.launch_kernel(s, {.name = "fill"}, [=] {
        for (std::size_t i = 0; i < v.size(); ++i) {
          v(i) = double(b + 1);
        }
      });
    };
  }
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(rep.alloc_retries, 1u);
  EXPECT_GT(ctx.stats().alloc_cache_hits, 0u);
  for (int b = 0; b < blocks; ++b) {
    EXPECT_DOUBLE_EQ(host[b][0], double(b + 1)) << b;
  }
}

}  // namespace
