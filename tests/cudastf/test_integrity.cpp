// End-to-end data integrity (DESIGN.md §10): silent-corruption soak on
// tiled Cholesky (bit-identical to fault-free under seeded flips),
// multi-sharer replica repair, sole-copy escalation with cause chains,
// corrupt-snapshot rejection at checkpoint commit, dual-execution voting,
// the background scrubber, disarmed gating and the monotonic write_version
// regression across epoch restores.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
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

// --- corruption soak (acceptance criterion) ---
//
// Tiled Cholesky under a seeded schedule of silent flips at all three
// sites, with checksums, dual-execution voting and checkpointing armed.
// The exported factor must match the fault-free run bit for bit: every
// injected corruption was detected and repaired, rolled back or voted out
// before it could reach the result.
void run_soak(bool graph_backend) {
  using namespace blaslib;
  constexpr std::size_t n = 64, block = 16;
  std::vector<double> dense(n * n);
  fill_spd(dense.data(), n, 17);

  std::vector<double> ref_out(n * n, 0.0);
  {
    cudasim::scoped_platform sp(4, tdesc());
    tile_matrix tiles(n, block);
    tiles.import_dense(dense.data());
    context ctx =
        graph_backend ? context::graph(sp.get()) : context(sp.get());
    tiled_cholesky_stf(ctx, tiles, {.block = block});
    const error_report rep = ctx.finalize();
    ASSERT_TRUE(rep.ok()) << rep.to_string();
    tiles.export_dense(ref_out.data());
  }

  std::vector<double> out(n * n, 0.0);
  error_report rep;
  backend_stats stats{};
  std::size_t flips_fired = 0;
  {
    cudasim::scoped_platform sp(4, tdesc());
    auto& fi = sp.get().ensure_fault_injector();
    fi.schedule_random_flips(2024, 6, 60, 4);
    tile_matrix tiles(n, block);
    tiles.import_dense(dense.data());
    context ctx =
        graph_backend ? context::graph(sp.get()) : context(sp.get());
    ctx.set_retry_policy({.max_attempts = 1});
    ctx.enable_checkpointing({.every_n_tasks = 8});
    ctx.integrity_options().verify_all_tasks = true;
    tiled_cholesky_stf(ctx, tiles, {.block = block});
    // Sweep any at-rest corruption still sitting in replicas no task will
    // read again; an unrepairable find escalates to an epoch restart here.
    for (int pass = 0; pass < 8 && ctx.scrub() != 0; ++pass) {
    }
    rep = ctx.finalize();
    stats = ctx.stats();
    tiles.export_dense(out.data());
    EXPECT_EQ(fi.pending(), 0u);  // every scheduled flip fired mid-run
    for (const auto& e : fi.log()) {
      if (e.kind == cudasim::fault_kind::bit_flip) {
        ++flips_fired;
        // Replay witness: fired flips log their site alongside kind,
        // device, op index and virtual time.
        EXPECT_NE(e.site, cudasim::flip_site::none);
      }
    }
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(flips_fired, 6u);
  EXPECT_GT(stats.checksums_computed, 0u);
  EXPECT_GT(stats.checksums_verified, 0u);
  EXPECT_GT(stats.verified_reexecutions, 0u);
  // Zero undetected corruptions: bit-identical to the fault-free run.
  EXPECT_EQ(std::memcmp(out.data(), ref_out.data(), n * n * sizeof(double)),
            0);
}

TEST(IntegritySoak, CholeskyBitIdenticalUnderFlipsStreamBackend) {
  run_soak(false);
}

TEST(IntegritySoak, CholeskyBitIdenticalUnderFlipsGraphBackend) {
  run_soak(true);
}

// --- replica repair from a verified MSI sharer ---

TEST(IntegrityRepair, ResidentFlipRepairedFromPeerSharer) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 0.0), z(n, 0.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    auto lz = ctx.logical_data(z.data(), n, "z");
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("init") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "init"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) = double(i) + 1.0;
            }
          });
        };
    // A read on device 1 leaves two valid sharers of y (plus the stale
    // host copy), so a corrupted replica has a live repair source.
    ctx.task(exec_place::device(1), ly.read()).set_symbol("touch") ->*
        [&p](cudasim::stream& s, slice<const double>) {
          p.launch_kernel(s, {.name = "touch"}, [] {});
        };
    p.synchronize();
    // At-rest aging of y's replica on device 0: the only allocation living
    // there, so the seeded victim pick is deterministic. The flip's clock
    // ticks on the unrelated z submission below.
    fi.schedule({.kind = cudasim::fault_kind::bit_flip,
                 .device = 0,
                 .at_op = fi.ops_seen(),
                 .site = cudasim::flip_site::resident,
                 .flip_seed = 5});
    ctx.task(exec_place::device(1), lz.rw()).set_symbol("tick") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "tick"}, [=] { v(0) = 1.0; });
        };
    // Acquiring y on device 0 hits the corrupt replica: it is invalidated,
    // device 1's copy verifies, and the refill re-sources from it.
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("bump") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "bump"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) += 1.0;
            }
          });
        };
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(stats.checksum_mismatches, 1u);
  EXPECT_GE(stats.replicas_repaired, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], double(i) + 2.0) << i;
  }
}

// --- sole-copy corruption escalates to poison with a cause chain ---

TEST(IntegrityEscalate, SoleCopyCorruptionPoisonsWithCauseChain) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.integrity_options();
  constexpr std::size_t n = 128;
  std::vector<double> y(n, 0.0), z(n, 0.0);
  error_report rep;
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    auto lz = ctx.logical_data(z.data(), n, "z");
    // The write leaves device 0 with the only valid copy of y.
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("init") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "init"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) = 7.0;
            }
          });
        };
    p.synchronize();
    fi.schedule({.kind = cudasim::fault_kind::bit_flip,
                 .device = 0,
                 .at_op = fi.ops_seen(),
                 .site = cudasim::flip_site::resident,
                 .flip_seed = 9});
    ctx.task(exec_place::device(1), lz.rw()).set_symbol("tick") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "tick"}, [=] { v(0) = 1.0; });
        };
    // No other sharer to repair from and no checkpoint to roll back to:
    // y is poisoned and its dependents cancel.
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("consume") ->*
        [&p](cudasim::stream& s, slice<double>) {
          p.launch_kernel(s, {.name = "consume"}, [] {});
        };
    rep = ctx.finalize();
  }
  EXPECT_FALSE(rep.ok());
  const std::string report = rep.to_string();
  // Cause chain names the data symbol, detection site and generation.
  EXPECT_NE(report.find("data_corrupted"), std::string::npos) << report;
  EXPECT_NE(report.find("checksum mismatch at task_acquire"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("data corruption(s) detected"), std::string::npos)
      << report;
  EXPECT_NE(report.find("'y'"), std::string::npos) << report;
  // Poisoned data is never written back: the host backing keeps its
  // registration-time contents instead of silently absorbing garbage.
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

// --- corrupt snapshot rejected at checkpoint commit ---

TEST(IntegrityCommit, FlippedSnapshotCopyAbortsCommit) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing();  // manual checkpoints only
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 0.0);
  auto ly = ctx.logical_data(y.data(), n, "y");
  ctx.task(ly.rw()).set_symbol("fill") ->*
      [&p](cudasim::stream& s, slice<double> v) {
        p.launch_kernel(s, {.name = "fill"}, [=] {
          for (std::size_t i = 0; i < v.size(); ++i) {
            v(i) = double(i);
          }
        });
      };
  p.synchronize();
  // The next copy is the d2h snapshot of y: its staged bytes are flipped
  // in flight. The commit verification must reject the attempt — and must
  // not touch the (healthy) device source.
  fi.schedule({.kind = cudasim::fault_kind::bit_flip,
               .device = -1,
               .at_op = fi.ops_seen(),
               .site = cudasim::flip_site::copy_payload,
               .flip_seed = 3});
  EXPECT_FALSE(ctx.checkpoint());
  EXPECT_GE(ctx.stats().checksum_mismatches, 1u);
  // The flip was one-shot: a fresh snapshot of the same bytes commits.
  EXPECT_TRUE(ctx.checkpoint());
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_DOUBLE_EQ(y[100], 100.0);
}

// --- opt-in dual-execution voting ---

TEST(IntegrityVoting, VerifiedTaskMasksKernelOutputFlip) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 1.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    p.synchronize();
    // A kernel-output flip lands in the hinted written range *after* the
    // body runs, so the release-time checksum adopts the corrupt bytes as
    // truth — only re-execution can expose it (DESIGN.md §10).
    fi.schedule({.kind = cudasim::fault_kind::bit_flip,
                 .device = -1,
                 .at_op = fi.ops_seen(),
                 .site = cudasim::flip_site::kernel_output,
                 .flip_seed = 11});
    ctx.task(ly.rw()).set_symbol("add").verified() ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "add"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) += 1.0;
            }
          });
        };
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  // Two executions disagreed (one absorbed the flip); the tie-break run
  // sided with the clean result.
  EXPECT_GE(stats.verified_reexecutions, 2u);
  EXPECT_GE(stats.checksum_mismatches, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 2.0) << i;
  }
}

// Both vote executions refused by loud kernel faults: the task never ran,
// so its pre-image checksums agree. The vote must not accept that — either
// the result is correct (the refusal was absorbed) or the report names y.
TEST(IntegrityVoting, RefusedExecutionsAreNeverSilent) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 1.0);
  error_report rep;
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    p.synchronize();
    for (int i = 0; i < 2; ++i) {
      fi.schedule({.kind = cudasim::fault_kind::kernel_fault,
                   .device = -1,
                   .at_op = fi.ops_seen()});
    }
    ctx.task(ly.rw()).set_symbol("add").verified() ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "add"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) += 1.0;
            }
          });
        };
    rep = ctx.finalize();
  }
  bool named = false;
  for (const task_failure& f : rep.failures) {
    for (const std::string& d : f.poisoned) {
      named = named || d == "y";
    }
  }
  bool correct = true;
  for (std::size_t i = 0; i < n; ++i) {
    correct = correct && y[i] == 2.0;
  }
  EXPECT_TRUE(correct || named)
      << "report ok=" << rep.ok() << " y0=" << y[0] << "\n"
      << rep.to_string();
}

// A clean refusal within the retry policy is retried inside the vote: the
// task runs, the vote completes, and the report stays clean.
TEST(IntegrityVoting, RefusedExecutionIsRetriedInsideTheVote) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 3});
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 1.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    p.synchronize();
    fi.schedule({.kind = cudasim::fault_kind::kernel_fault,
                 .device = -1,
                 .at_op = fi.ops_seen()});
    ctx.task(ly.rw()).set_symbol("add").verified() ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "add"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) += 1.0;
            }
          });
        };
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(rep.tasks_retried, 1u);
  EXPECT_EQ(stats.verified_reexecutions, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 2.0) << i;
  }
}

// --- background scrubber ---

TEST(IntegrityScrub, ScrubFindsAndRepairsAtRestCorruption) {
  cudasim::scoped_platform sp(2, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.integrity_options();
  constexpr std::size_t n = 256;
  std::vector<double> y(n, 0.0), z(n, 0.0);
  error_report rep;
  backend_stats stats{};
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    auto lz = ctx.logical_data(z.data(), n, "z");
    ctx.task(exec_place::device(0), ly.rw()).set_symbol("init") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "init"}, [=] {
            for (std::size_t i = 0; i < v.size(); ++i) {
              v(i) = 3.0;
            }
          });
        };
    ctx.task(exec_place::device(1), ly.read()).set_symbol("touch") ->*
        [&p](cudasim::stream& s, slice<const double>) {
          p.launch_kernel(s, {.name = "touch"}, [] {});
        };
    p.synchronize();
    fi.schedule({.kind = cudasim::fault_kind::bit_flip,
                 .device = 0,
                 .at_op = fi.ops_seen(),
                 .site = cudasim::flip_site::resident,
                 .flip_seed = 13});
    ctx.task(exec_place::device(1), lz.rw()).set_symbol("tick") ->*
        [&p](cudasim::stream& s, slice<double> v) {
          p.launch_kernel(s, {.name = "tick"}, [=] { v(0) = 1.0; });
        };
    p.synchronize();
    // The idle-time sweep finds the aged replica and repairs it from the
    // verified sharer on device 1; a second pass comes back clean.
    EXPECT_EQ(ctx.scrub(), 1u);
    EXPECT_EQ(ctx.scrub(), 0u);
    rep = ctx.finalize();
    stats = ctx.stats();
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GE(stats.scrub_passes, 2u);
  EXPECT_GE(stats.replicas_repaired, 1u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 3.0) << i;
  }
}

// --- disarmed gating (Table 1 stays within noise) ---

TEST(IntegrityGating, DisarmedRunsTouchNoCounters) {
  using namespace blaslib;
  constexpr std::size_t n = 64, block = 16;
  std::vector<double> dense(n * n);
  fill_spd(dense.data(), n, 23);
  std::vector<double> out_off(n * n, 0.0), out_on(n * n, 0.0);
  backend_stats stats_off{}, stats_on{};
  for (int armed = 0; armed < 2; ++armed) {
    cudasim::scoped_platform sp(2, tdesc());
    tile_matrix tiles(n, block);
    tiles.import_dense(dense.data());
    context ctx(sp.get());
    if (armed) {
      ctx.integrity_options();
    }
    tiled_cholesky_stf(ctx, tiles, {.block = block});
    const error_report rep = ctx.finalize();
    ASSERT_TRUE(rep.ok()) << rep.to_string();
    tiles.export_dense((armed ? out_on : out_off).data());
    (armed ? stats_on : stats_off) = ctx.stats();
  }
  // Disarmed: the engine does not exist and every hook is one null check.
  EXPECT_EQ(stats_off.checksums_computed, 0u);
  EXPECT_EQ(stats_off.checksums_verified, 0u);
  EXPECT_EQ(stats_off.checksum_mismatches, 0u);
  EXPECT_EQ(stats_off.replicas_repaired, 0u);
  EXPECT_EQ(stats_off.scrub_passes, 0u);
  EXPECT_EQ(stats_off.verified_reexecutions, 0u);
  // Armed but fault-free: checksums flow, nothing mismatches, and the
  // numeric result is untouched.
  EXPECT_GT(stats_on.checksums_computed, 0u);
  EXPECT_EQ(stats_on.checksum_mismatches, 0u);
  EXPECT_EQ(std::memcmp(out_on.data(), out_off.data(),
                        n * n * sizeof(double)),
            0);
}

// --- witness naming (satellite: fault_kind_name / flip_site_name) ---

TEST(IntegrityWitness, FlipKindAndSitesAreNamed) {
  EXPECT_STREQ(cudasim::fault_kind_name(cudasim::fault_kind::bit_flip),
               "bit_flip");
  EXPECT_STREQ(cudasim::flip_site_name(cudasim::flip_site::kernel_output),
               "kernel_output");
  EXPECT_STREQ(cudasim::flip_site_name(cudasim::flip_site::copy_payload),
               "copy_payload");
  EXPECT_STREQ(cudasim::flip_site_name(cudasim::flip_site::resident),
               "resident");
}

// --- regression: write_version stays monotonic across epoch restores ---
//
// restore_entry used to rewind write_version to the committed snapshot's
// generation. In-flight fills coalesce on (fill_pending, fill_version ==
// write_version), so reusing a pre-restart generation number let a stale
// fill alias a post-restore one. The restore must keep the counter
// strictly increasing.
TEST(IntegrityRegression, WriteVersionMonotonicAcrossEpochRestore) {
  cudasim::scoped_platform sp(1, tdesc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing();
  constexpr std::size_t n = 64;
  std::vector<double> y(n, 0.0);
  error_report rep;
  backend_stats stats{};
  std::uint64_t version_before = 0, version_after = 0;
  {
    auto ly = ctx.logical_data(y.data(), n, "y");
    auto bump = [&] {
      ctx.task(ly.rw()).set_symbol("bump") ->*
          [&p](cudasim::stream& s, slice<double> v) {
            p.launch_kernel(s, {.name = "bump"}, [=] {
              for (std::size_t i = 0; i < v.size(); ++i) {
                v(i) += 1.0;
              }
            });
          };
    };
    bump();
    ASSERT_TRUE(ctx.checkpoint());
    bump();
    version_before = ly.impl()->write_version;
    // A permanent kernel fault on the next bump escalates to an epoch
    // restart: y rolls back to the committed snapshot and the log replays.
    fi.schedule({.kind = cudasim::fault_kind::kernel_fault,
                 .device = -1,
                 .at_op = fi.ops_seen()});
    bump();
    rep = ctx.finalize();
    stats = ctx.stats();
    version_after = ly.impl()->write_version;
  }
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_GT(version_after, version_before);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(y[i], 3.0) << i;  // each bump applied exactly once
  }
}

}  // namespace
