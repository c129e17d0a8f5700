#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <thread>

#include "alloc_count.hpp"
#include "blaslib/blas_sim.hpp"
#include "blaslib/tiled_cholesky.hpp"
#include "miniweather/stf_driver.hpp"
#include "taskbench/taskbench.hpp"

namespace perfbench {
namespace {

using cudastf::context;
using cudastf::exec_place;
using cudastf::logical_data;
using cudastf::slice;

double us_since(std::int64_t t0) { return 1e-3 * static_cast<double>(now_ns() - t0); }

/// FNV-1a over a sequence of integers, for input fingerprints.
class hasher {
 public:
  hasher& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_tasks(const std::vector<taskbench::task_node>& tasks, std::size_t length) {
  hasher h;
  h.add(length);
  for (const auto& t : tasks) {
    h.add(t.column).add(t.deps.size());
    for (std::uint32_t d : t.deps) {
      h.add(d);
    }
  }
  return h.value();
}

/// Splits a rep into set-up (constructor to start()) and the timed region
/// (start() to finish()), and reads the public counters afterwards.
class rep_timer {
 public:
  rep_timer(rep_out& o, const rep_env& env) : o_(o), env_(env), t0_(now_ns()) {}

  void start() {
    o_.setup_s = 1e-9 * static_cast<double>(now_ns() - t0_);
    allocs0_ = allocations();
    if (env_.tr != nullptr) {
      env_.tr->begin_rep();
    }
    t1_ = now_ns();
  }

  /// Ends the timed region with finalize(); `submitted` counts the tasks the
  /// region submitted. With `drain`, platform::synchronize() drains the DES
  /// first, traced or not, so that both runs issue finalize()'s write-backs
  /// against the same completed state and agree on every counter.
  cudastf::error_report finish(context& ctx, bool drain, std::uint64_t submitted) {
    o_.tasks = submitted;
    if (drain) {
      span_guard g(env_.tr, layer::synchronize);
      ctx.platform().synchronize();
    }
    cudastf::error_report r;
    {
      span_guard g(env_.tr, layer::finalize);
      r = ctx.finalize();
    }
    o_.run_s = 1e-9 * static_cast<double>(now_ns() - t1_);
    o_.allocs = allocations() - allocs0_;
    if (env_.tr != nullptr) {
      o_.self = env_.tr->end_rep();
    }
    cudasim::platform& p = ctx.platform();
    o_.sim_s = p.now();
    o_.c.stats = ctx.stats();
    o_.c.events_pruned = ctx.events_pruned();
    o_.c.fast_path_submits = ctx.fast_path_submits();
    o_.c.ops_completed = p.ops_completed();
    o_.c.nodes_pooled = p.nodes_pooled();
    o_.failures = r.failures_total;
    return r;
  }

 private:
  rep_out& o_;
  const rep_env& env_;
  std::int64_t t0_;
  std::int64_t t1_ = 0;
  std::uint64_t allocs0_ = 0;
};

/// Host µs per task over consecutive submissions, one sample per batch.
class batcher {
 public:
  batcher(std::vector<double>* out, std::uint32_t size) : out_(out), size_(size) {}
  std::size_t total() const { return total_; }
  void done_one() {
    ++total_;
    if (++n_ == size_) {
      flush();
    }
  }
  void flush() {
    if (out_ != nullptr && n_ != 0) {
      out_->push_back(us_since(t0_) / n_);
    }
    n_ = 0;
    t0_ = now_ns();
  }

 private:
  std::vector<double>* out_;
  std::uint32_t size_;
  std::uint32_t n_ = 0;
  std::size_t total_ = 0;
  std::int64_t t0_ = now_ns();
};

// --- TaskBench (Table I) ---

constexpr std::uint32_t tb_steps = 2000;

/// Empty tasks take no device time, so TaskBench's simulated time is that of
/// moving the columns in and out. The seed draws the column length (4 to 64
/// elements) so that each seed is a different input on both clocks; it
/// changes nothing on the submission path.
std::size_t draw_column_length(std::uint64_t seed) {
  return 4 + static_cast<std::size_t>(std::mt19937_64(seed ^ 0x5eed)() % 61);
}

using column = logical_data<slice<std::uint64_t>>;

struct tb_columns {
  std::vector<std::vector<std::uint64_t>> backing;
  std::vector<column> cols;

  tb_columns(context& ctx, std::uint32_t width, std::size_t length) : backing(width) {
    cols.reserve(width);
    for (std::uint32_t i = 0; i < width; ++i) {
      backing[i].assign(length, 0);
      backing[i][0] = i + 1u;
      cols.push_back(ctx.logical_data(backing[i].data(), length, "col"));
    }
  }
  /// Allocates every column's device instance so the timed region measures
  /// task creation and dependency management, not first-touch allocation.
  void warm(context& ctx) {
    for (auto& c : cols) {
      ctx.task(c.rw())->*[](cudasim::stream&, slice<std::uint64_t>) {};
    }
  }
};

auto empty_body = [](cudasim::stream&, auto...) {};

/// A kernel whose result depends on the order of every task touching the
/// column, so the serial interpretation below is an exact reference.
auto tb_kernel(cudasim::platform& p) {
  return [&p](cudasim::stream& s, slice<std::uint64_t> self, auto... deps) {
    p.launch_kernel(s, {.name = "tb"}, [=] {
      std::uint64_t v = self(0) * 31 + 1;
      ((v += 7 * deps(0)), ...);
      self(0) = v;
    });
  };
}

std::vector<std::uint64_t> tb_reference(const std::vector<taskbench::task_node>& tasks,
                                        std::uint32_t width) {
  std::vector<std::uint64_t> v(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    v[i] = i + 1u;
  }
  for (const auto& t : tasks) {
    std::uint64_t x = v[t.column] * 31 + 1;
    for (std::uint32_t d : t.deps) {
      x += 7 * v[d];
    }
    v[t.column] = x;
  }
  return v;
}

template <class Body>
void submit_tb(context& ctx, std::vector<column>& cols, const taskbench::task_node& t,
               tracer* tr, const Body& body) {
  span_guard g(tr, layer::task);
  auto& self = cols[t.column];
  switch (t.deps.size()) {
    case 0:
      ctx.task(self.rw())->*body;
      break;
    case 1:
      ctx.task(self.rw(), cols[t.deps[0]].read())->*body;
      break;
    case 2:
      ctx.task(self.rw(), cols[t.deps[0]].read(), cols[t.deps[1]].read())->*body;
      break;
    default:
      ctx.task(self.rw(), cols[t.deps[0]].read(), cols[t.deps[1]].read(),
               cols[t.deps[2]].read())->*body;
      break;
  }
}

std::string tb_compare(const tb_columns& c, const std::vector<std::uint64_t>& ref) {
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (c.backing[i][0] != ref[i]) {
      return "column " + std::to_string(i) + " differs from the serial reference";
    }
  }
  return {};
}

/// TaskBench RANDOM as empty tasks on one A100 model, stream backend, one
/// submitting thread: the host-bound case.
class taskbench_random final : public workload {
 public:
  static constexpr std::uint32_t width = 50;

  explicit taskbench_random(std::uint64_t seed)
      : seed_(seed),
        length_(draw_column_length(seed)),
        tasks_(taskbench::generate(taskbench::topology::random_graph, width, tb_steps, seed)) {}

  rep_out rep(const rep_env& env) override {
    rep_out o;
    rep_timer tm(o, env);
    cudasim::platform plat(1, cudasim::a100_desc());
    context ctx(plat);
    tb_columns data(ctx, width, length_);
    data.warm(ctx);
    tm.start();
    for (std::uint32_t s = 0; s < tb_steps; ++s) {
      span_guard g(env.tr, layer::app);
      const std::int64_t t0 = now_ns();
      for (std::uint32_t i = 0; i < width; ++i) {
        submit_tb(ctx, data.cols, tasks_[s * width + i], env.tr, empty_body);
      }
      if (env.batch_us != nullptr) {
        env.batch_us->push_back(us_since(t0) / width);
      }
    }
    if (!tm.finish(ctx, true, tasks_.size()).ok()) {
      o.error = "fault-free run reported failures";
    }
    return o;
  }

  std::uint64_t fingerprint() const override { return hash_tasks(tasks_, length_); }

  std::string check() override {
    const auto tasks =
        taskbench::generate(taskbench::topology::random_graph, width, 40, seed_);
    cudasim::platform plat(1, cudasim::a100_desc());
    context ctx(plat);
    tb_columns data(ctx, width, length_);
    for (const auto& t : tasks) {
      submit_tb(ctx, data.cols, t, nullptr, tb_kernel(plat));
    }
    ctx.finalize();
    return tb_compare(data, tb_reference(tasks, width));
  }

 private:
  std::uint64_t seed_;
  std::size_t length_;
  std::vector<taskbench::task_node> tasks_;
};

/// TaskBench TRIVIAL through ctx.parallel_submit, columns split across the
/// submitting threads: the only workload on the §11 threaded path.
class taskbench_mt final : public workload {
 public:
  // 48 columns split evenly over 1, 2, 3 or 4 threads.
  static constexpr std::uint32_t width = 48;

  explicit taskbench_mt(std::uint64_t seed)
      : length_(draw_column_length(seed)),
        threads_(static_cast<int>(
            std::clamp(std::thread::hardware_concurrency(), 1u, 4u))),
        tasks_(taskbench::generate(taskbench::topology::trivial, width, tb_steps)) {}

  int threads() const override { return threads_; }
  std::uint64_t fingerprint() const override { return hash_tasks(tasks_, length_); }

  rep_out rep(const rep_env& env) override {
    rep_out o;
    rep_timer tm(o, env);
    cudasim::platform plat(1, cudasim::a100_desc());
    context ctx(plat);
    tb_columns data(ctx, width, length_);
    data.warm(ctx);
    const int nt = env.threads;
    std::vector<std::vector<double>> per_thread(static_cast<std::size_t>(nt));
    for (auto& v : per_thread) {
      v.reserve(tb_steps);
    }
    tm.start();
    {
      // Workers record no spans: the tracer is single-threaded, and the
      // parallel_submit span already covers them.
      span_guard g(env.tr, layer::parallel_submit);
      ctx.parallel_submit(nt, [&](int tid) {
        // A thread's batch is 48 consecutive submissions, the size of one
        // TaskBench step.
        batcher b(&per_thread[static_cast<std::size_t>(tid)], width);
        for (std::uint32_t s = 0; s < tb_steps; ++s) {
          for (std::uint32_t i = static_cast<std::uint32_t>(tid); i < width;
               i += static_cast<std::uint32_t>(nt)) {
            submit_tb(ctx, data.cols, tasks_[s * width + i], nullptr, empty_body);
            b.done_one();
          }
        }
        b.flush();
      });
    }
    if (!tm.finish(ctx, true, tasks_.size()).ok()) {
      o.error = "fault-free run reported failures";
    }
    if (env.batch_us != nullptr) {
      for (const auto& v : per_thread) {
        env.batch_us->insert(env.batch_us->end(), v.begin(), v.end());
      }
    }
    return o;
  }

  std::string check() override {
    const auto tasks = taskbench::generate(taskbench::topology::trivial, width, 40);
    cudasim::platform plat(1, cudasim::a100_desc());
    context ctx(plat);
    tb_columns data(ctx, width, length_);
    const auto body = tb_kernel(plat);
    ctx.parallel_submit(threads_, [&](int tid) {
      for (std::uint32_t s = 0; s < 40; ++s) {
        for (std::uint32_t i = static_cast<std::uint32_t>(tid); i < width;
             i += static_cast<std::uint32_t>(threads_)) {
          submit_tb(ctx, data.cols, tasks[s * width + i], nullptr, body);
        }
      }
    });
    ctx.finalize();
    return tb_compare(data, tb_reference(tasks, width));
  }

 private:
  std::size_t length_;
  int threads_;
  std::vector<taskbench::task_node> tasks_;
};

// --- miniWeather (§VII-D, Fig. 10) ---

/// Runs `steps` miniWeather time steps, one graph-backend epoch each.
void miniweather_steps(context& ctx, miniweather::stf_simulation& sim, std::size_t steps,
                       const rep_env* env) {
  tracer* tr = env != nullptr ? env->tr : nullptr;
  for (std::size_t s = 0; s < steps; ++s) {
    span_guard g(tr, layer::app);
    const std::int64_t t0 = now_ns();
    const std::uint64_t n0 = ctx.stats().tasks;
    sim.run_steps(1);
    {
      span_guard f(tr, layer::fence);
      ctx.fence();
    }
    if (env != nullptr && env->batch_us != nullptr) {
      env->batch_us->push_back(us_since(t0) / static_cast<double>(ctx.stats().tasks - n0));
    }
  }
}

/// The injection case at the §VII-D small size, timing-only, on the graph
/// backend: capture, instantiation, exec-update and memoized relaunch.
class miniweather_graph final : public workload {
 public:
  explicit miniweather_graph(std::uint64_t seed)
      : steps_(295 + static_cast<std::size_t>(std::mt19937_64(seed)() % 11)) {
    cfg_.nx = 500;
    cfg_.nz = 250;
    cfg_.tc = miniweather::testcase::injection;
  }

  rep_out rep(const rep_env& env) override {
    rep_out o;
    rep_timer tm(o, env);
    cudasim::platform plat(1, cudasim::a100_desc());
    plat.set_copy_payloads(false);
    context ctx = context::graph(plat);
    miniweather::stf_simulation sim(ctx, cfg_, exec_place::device(0),
                                    {.compute = false, .fence_per_step = false});
    tm.start();
    const std::uint64_t n0 = ctx.stats().tasks;
    miniweather_steps(ctx, sim, steps_, &env);
    if (!tm.finish(ctx, true, ctx.stats().tasks - n0).ok()) {
      o.error = "fault-free run reported failures";
    }
    return o;
  }

  std::uint64_t fingerprint() const override { return hasher().add(steps_).value(); }

  std::string check() override {
    miniweather::config c;
    c.nx = 48;
    c.nz = 24;
    c.tc = miniweather::testcase::injection;
    constexpr std::size_t steps = 6;
    miniweather::fields ref(c);
    miniweather::init_fields(c, ref);
    for (std::size_t s = 0; s < steps; ++s) {
      miniweather::step_serial(c, ref, s);
    }
    auto desc = cudasim::test_desc();
    desc.mem_capacity = 1ull << 30;
    cudasim::platform plat(1, desc);
    context ctx = context::graph(plat);
    miniweather::stf_simulation sim(ctx, c, exec_place::device(0),
                                    {.compute = true, .fence_per_step = false});
    miniweather_steps(ctx, sim, steps, nullptr);
    ctx.finalize();
    const auto& got = sim.host_fields().state;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (!(std::fabs(got[i] - ref.state[i]) < 1e-11)) {
        return "miniWeather state differs from the serial reference at " + std::to_string(i);
      }
    }
    return {};
  }

 private:
  miniweather::config cfg_;
  std::size_t steps_;
};

// --- tiled Cholesky (§VII-C, Fig. 8) ---

/// The right-looking tiled Cholesky of blaslib::tiled_cholesky_stf, issued
/// from here so that each ctx.task call gets its own span and batches of
/// 50 submissions get their own latency sample. Same tasks, same order,
/// same tile-row round robin over devices.
/// Returns the number of tasks submitted.
std::size_t submit_cholesky(context& ctx, blaslib::tile_matrix& a, bool compute,
                            const rep_env* env) {
  tracer* tr = env != nullptr ? env->tr : nullptr;
  cudasim::platform& plat = ctx.platform();
  const std::size_t T = a.tiles();
  const std::size_t bs = a.block();
  const int ndev = plat.device_count();
  std::vector<logical_data<slice<double, 2>>> tiles(T * T);
  auto lt = [&](std::size_t i, std::size_t j) -> auto& { return tiles[i * T + j]; };
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      lt(i, j) = ctx.logical_data(a.tile_ptr(i, j), bs, bs, "tile");
    }
  }
  auto owner = [&](std::size_t i) { return exec_place::device(static_cast<int>(i) % ndev); };
  batcher b(env != nullptr ? env->batch_us : nullptr, 50);
  for (std::size_t k = 0; k < T; ++k) {
    span_guard panel(tr, layer::app);
    {
      span_guard g(tr, layer::task);
      ctx.task(owner(k), lt(k, k).rw()).set_symbol("potrf")
              ->*[&plat, compute](cudasim::stream& s, slice<double, 2> akk) {
        blaslib::dpotrf(plat, s, akk, compute);
      };
    }
    b.done_one();
    for (std::size_t i = k + 1; i < T; ++i) {
      span_guard g(tr, layer::task);
      ctx.task(owner(i), lt(k, k).read(), lt(i, k).rw()).set_symbol("trsm")
              ->*[&plat, compute](cudasim::stream& s, slice<const double, 2> akk,
                                  slice<double, 2> aik) {
        blaslib::dtrsm(plat, s, akk, aik, compute);
      };
      b.done_one();
    }
    for (std::size_t i = k + 1; i < T; ++i) {
      {
        span_guard g(tr, layer::task);
        ctx.task(owner(i), lt(i, k).read(), lt(i, i).rw()).set_symbol("syrk")
                ->*[&plat, compute](cudasim::stream& s, slice<const double, 2> aik,
                                    slice<double, 2> aii) {
          blaslib::dsyrk(plat, s, -1.0, aik, 1.0, aii, compute);
        };
      }
      b.done_one();
      for (std::size_t j = k + 1; j < i; ++j) {
        span_guard g(tr, layer::task);
        ctx.task(owner(i), lt(i, k).read(), lt(j, k).read(), lt(i, j).rw())
                .set_symbol("gemm")
                ->*[&plat, compute](cudasim::stream& s, slice<const double, 2> aik,
                                    slice<const double, 2> ajk, slice<double, 2> aij) {
          blaslib::dgemm(plat, s, false, true, -1.0, aik, ajk, 1.0, aij, compute);
        };
        b.done_one();
      }
    }
  }
  b.flush();
  return b.total();
}

/// The Fig. 8 point (30x30 tiles on 8 A100 models), timing-only: multi-device
/// coherence and the transfer engine dominate.
class cholesky_8gpu final : public workload {
 public:
  static constexpr std::size_t tiles = 30;
  static constexpr int devices = 8;

  explicit cholesky_8gpu(std::uint64_t seed)
      : block_(1940 + static_cast<std::size_t>(std::mt19937_64(seed)() % 41)),
        matrix_(tiles * block_, block_, /*zero_init=*/false) {}

  rep_out rep(const rep_env& env) override {
    rep_out o;
    rep_timer tm(o, env);
    cudasim::platform plat(devices, cudasim::a100_desc());
    plat.set_copy_payloads(false);
    context ctx(plat);
    ctx.set_compute_payloads(false);
    tm.start();
    const std::size_t submitted = submit_cholesky(ctx, matrix_, false, &env);
    if (!tm.finish(ctx, true, submitted).ok()) {
      o.error = "fault-free run reported failures";
    }
    constexpr std::size_t expected = tiles * (tiles + 1) * (tiles + 2) / 6;
    if (o.tasks != expected) {
      o.error = "submitted " + std::to_string(o.tasks) + " tasks, expected " +
                std::to_string(expected);
    }
    return o;
  }

  std::uint64_t fingerprint() const override { return hasher().add(block_).value(); }

  std::string check() override {
    constexpr std::size_t block = 16;
    constexpr std::size_t n = 10 * block;
    std::vector<double> dense(n * n);
    blaslib::fill_spd(dense.data(), n, 11);
    std::vector<double> ref = dense;
    if (!blaslib::cholesky_reference(ref.data(), n)) {
      return "host reference factorization failed";
    }
    auto desc = cudasim::test_desc();
    desc.mem_capacity = 1ull << 30;
    cudasim::platform plat(devices, desc);
    blaslib::tile_matrix a(n, block);
    a.import_dense(dense.data());
    {
      context ctx(plat);
      submit_cholesky(ctx, a, true, nullptr);
      ctx.finalize();
    }
    std::vector<double> out(n * n, 0.0);
    a.export_dense(out.data());
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        if (!(std::fabs(out[i * n + j] - ref[i * n + j]) < 1e-8)) {
          return "Cholesky factor differs from the host reference at (" +
                 std::to_string(i) + "," + std::to_string(j) + ")";
        }
      }
    }
    return {};
  }

 private:
  std::size_t block_;
  blaslib::tile_matrix matrix_;
};

// --- recovery engines (§5, §7, §12) ---

/// 8 update chains on 4 test-model devices with real kernel bodies, under a
/// seeded schedule of transient faults, one mid-run fail-stop and stalls,
/// with checkpointing and a default deadline armed.
class recovery_faults final : public workload {
 public:
  static constexpr int devices = 4;
  static constexpr int chains = 8;
  static constexpr std::size_t n = 1 << 14;  // doubles per chain
  static constexpr int tasks = 8000;
  static constexpr std::uint32_t checkpoint_every = 16;

  /// Strictly increasing, so a lost or repeated update always shows: the
  /// earlier y = 0.5*y + 1 settles at exactly 2.0 and hides both.
  static double update(double y, std::size_t i) {
    return y + 1.0 + 0.25 * static_cast<double>(i % 8);
  }

  explicit recovery_faults(std::uint64_t seed) : ref_(n, 1.0) {
    // Every fault kind recurs at a fixed spacing on devices in turn, and the
    // seed places each occurrence within its interval: seeds then differ in
    // where faults land, not in how many hit each device, which would move
    // the makespan by whole 30 s stalls.
    std::mt19937_64 rng(seed);
    auto spaced = [&](int k, int every) {
      return static_cast<std::uint64_t>(k) * every + 1 + rng() % static_cast<std::uint64_t>(every);
    };
    // Transient faults, 2 per 100 tasks.
    for (int f = 0; f < tasks / 50; ++f) {
      cudasim::fault_event ev;
      constexpr cudasim::fault_kind kinds[] = {cudasim::fault_kind::kernel_fault,
                                               cudasim::fault_kind::link_error,
                                               cudasim::fault_kind::alloc_fail};
      ev.kind = kinds[f % 3];
      ev.device = f % devices;
      ev.at_op = spaced(f, 50);
      faults_.push_back(ev);
    }
    // One fail-stop at mid-run.
    cudasim::fault_event fail;
    fail.kind = cudasim::fault_kind::device_fail;
    fail.device = devices - 1;
    fail.at_op = tasks / 2;
    faults_.push_back(fail);
    // Stalls, 1 per 200 tasks, every third permanent and the rest 30 virtual
    // seconds long.
    for (int f = 0; f < tasks / 200; ++f) {
      cudasim::fault_event ev;
      ev.kind = cudasim::fault_kind::stall;
      ev.device = f % devices;
      ev.at_op = spaced(f, 200);
      ev.stall_seconds = f % 3 == 2 ? -1.0 : 30.0;
      faults_.push_back(ev);
    }

    for (int u = 0; u < tasks / chains; ++u) {
      for (std::size_t i = 0; i < n; ++i) {
        const double next = update(ref_[i], i);
        if (next == ref_[i]) {
          fixed_point_ = true;
        }
        ref_[i] = next;
      }
    }
  }

  rep_out rep(const rep_env& env) override {
    rep_out o;
    if (fixed_point_) {
      o.error = "the chain update reached a fixed point";
      return o;
    }
    rep_timer tm(o, env);
    auto desc = cudasim::test_desc();
    desc.mem_capacity = 512u << 20;
    cudasim::platform plat(devices, desc);
    auto& inj = plat.ensure_fault_injector();
    for (const auto& ev : faults_) {
      inj.schedule(ev);
    }
    context ctx(plat);
    ctx.enable_checkpointing({.every_n_tasks = checkpoint_every, .max_restarts = 64});
    ctx.set_default_deadline(5.0);
    std::vector<std::vector<double>> data(chains, std::vector<double>(n, 1.0));
    std::vector<logical_data<slice<double>>> ld;
    for (int c = 0; c < chains; ++c) {
      ld.push_back(ctx.logical_data(data[static_cast<std::size_t>(c)].data(), n,
                                    "chain" + std::to_string(c)));
    }
    tm.start();
    // One batch per checkpoint interval, so that every batch holds exactly
    // one checkpoint.
    batcher b(env.batch_us, checkpoint_every);
    for (int r = 0; r < tasks / chains; ++r) {
      span_guard g(env.tr, layer::app);
      for (int c = 0; c < chains; ++c) {
        {
          span_guard p(env.tr, layer::parallel_for);
          ctx.parallel_for(exec_place::device((r * chains + c) % devices),
                           cudastf::box<1>(n), ld[static_cast<std::size_t>(c)].rw())
                  .set_symbol("update")
                  ->*[](std::size_t i, slice<double> y) { y(i) = update(y(i), i); };
        }
        b.done_one();
      }
    }
    b.flush();
    // No separate drain: platform::synchronize() would wait on a permanent
    // stall that only finalize()'s deadline settlement can cancel.
    const cudastf::error_report report = tm.finish(ctx, false, tasks);
    o.error = compare(data, report, o.chains_intact);
    return o;
  }

  std::uint64_t fingerprint() const override {
    hasher h;
    for (const auto& ev : faults_) {
      h.add(static_cast<std::uint64_t>(ev.kind)).add(static_cast<std::uint64_t>(ev.device));
      h.add(ev.at_op).add(static_cast<std::uint64_t>(ev.stall_seconds));
    }
    return h.value();
  }

  std::string check() override {
    // Each rep already compares its chains with the fault-free reference;
    // this adds the reference's own fixed-point guard.
    return fixed_point_ ? "the chain update reached a fixed point" : "";
  }

 private:
  /// Every chain the error report does not name must be bit-identical to
  /// the fault-free reference. Counts the chains that are, named or not.
  std::string compare(const std::vector<std::vector<double>>& data,
                      const cudastf::error_report& report, std::uint64_t& intact) const {
    if (report.failures_total > report.failures.size()) {
      return "error report truncated; unnamed chains cannot be verified";
    }
    std::set<std::string> named;
    for (const auto& f : report.failures) {
      named.insert(f.poisoned.begin(), f.poisoned.end());
    }
    std::string why;
    for (int c = 0; c < chains; ++c) {
      const bool same = std::memcmp(data[static_cast<std::size_t>(c)].data(), ref_.data(),
                                      n * sizeof(double)) == 0;
      intact += same ? 1 : 0;
      if (!same && named.count("chain" + std::to_string(c)) == 0) {
        why = "chain " + std::to_string(c) +
              " is not named in the error report but differs from the fault-free run";
      }
    }
    return why;
  }

  std::vector<cudasim::fault_event> faults_;
  std::vector<double> ref_;
  bool fixed_point_ = false;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "taskbench_random", "taskbench_mt", "miniweather_graph", "cholesky_8gpu",
      "recovery_faults"};
  return names;
}

std::unique_ptr<workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "taskbench_random") return std::make_unique<taskbench_random>(seed);
  if (name == "taskbench_mt") return std::make_unique<taskbench_mt>(seed);
  if (name == "miniweather_graph") return std::make_unique<miniweather_graph>(seed);
  if (name == "cholesky_8gpu") return std::make_unique<cholesky_8gpu>(seed);
  if (name == "recovery_faults") return std::make_unique<recovery_faults>(seed);
  return nullptr;
}

}  // namespace perfbench
