// Task construction (§II-B): ctx.task(deps...)->*body submits one unit of
// asynchronous work whose ordering is inferred from the logical data it
// accesses. The body receives a stream to enqueue work on plus one typed
// view per dependency.
//
// Builders only *lower* (DESIGN.md §13). All four — task and host_launch
// here, parallel_for and launch in their headers — go through the one
// typed core below, detail::builder_core, into the shared staged pipeline
// in submit.{hpp,cpp}. Engine logic — checkpoint logging, overload
// admission, poison-cancel, retry/re-route, integrity verification,
// deadline tracking — lives in the pipeline, not here.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/logical_data.hpp"
#include "cudastf/places.hpp"
#include "cudastf/submit.hpp"

namespace cudastf::detail {

/// Acquires every dependency, returning the merged readiness list and the
/// resolved per-dependency places (Algorithm 2 applied per dependency).
template <class... Deps, std::size_t... I>
event_list acquire_all(context_state& st, int exec_device,
                       std::array<data_place, sizeof...(Deps)>& resolved,
                       const std::tuple<Deps...>& deps,
                       std::index_sequence<I...>) {
  event_list ready;
  ((resolved[I] = resolve_place(std::get<I>(deps).untyped.place, exec_device),
    st.events_pruned +=
    ready.merge(acquire_dep(st, std::get<I>(deps).untyped, resolved[I]))),
   ...);
  return ready;
}

template <class... Deps, std::size_t... I>
void release_all(context_state& st,
                 const std::array<data_place, sizeof...(Deps)>& resolved,
                 const std::tuple<Deps...>& deps, const event_list& done,
                 std::index_sequence<I...>) {
  (release_dep(st, std::get<I>(deps).untyped, resolved[I], done), ...);
}

/// Builds the tuple of typed views over the acquired instances.
template <class... Deps, std::size_t... I>
auto make_views(const std::array<data_place, sizeof...(Deps)>& resolved,
                const std::tuple<Deps...>& deps, std::index_sequence<I...>) {
  return std::make_tuple(std::get<I>(deps).make_view(
      std::get<I>(deps).untyped.data->find_instance(resolved[I])->ptr)...);
}

/// Devices targeted by an execution place (grid resolution).
std::vector<int> resolve_devices(const exec_place& where,
                                 cudasim::platform& plat);

/// Composite data place over `devices` with the default partitioner.
data_place default_composite(const std::vector<int>& devices);

/// Rebinds affine places to the composite default when running on a grid.
template <class... Deps, std::size_t... I>
void gridify_places(std::tuple<Deps...>& deps, const data_place& composite,
                    std::index_sequence<I...>) {
  ((std::get<I>(deps).untyped.place.is_affine()
        ? void(std::get<I>(deps).untyped.place = composite)
        : void()),
   ...);
}

/// The run-stage arguments of shard `i` of `ndev` over `devices`, handed
/// to a builder's run_shard().
struct shard_args {
  submit_pipeline& pipe;
  const data_place* resolved;  ///< per-dependency places, filled by acquire
  const int* devices;
  std::size_t ndev;
  std::size_t i;
  const event_list& ready;
  event_list& done;
  resilient_result* rr;  ///< null on the plain (throwing) path
};

/// What every builder shares: the context, the execution place and the
/// typed dependency tuple, and the lowering of one submission into the
/// staged pipeline. A builder holds one as `core_`, names the core its
/// friend (the hooks call its private run_shard()) and supplies
///   template <class Fn, class Views>
///   void run_shard(const shard_args&, Fn& fn, Views& views);
/// which submits the payload of one shard through a.pipe.run_shard().
template <class... Deps>
struct builder_core {
  using places = std::array<data_place, sizeof...(Deps)>;
  static constexpr auto seq = std::index_sequence_for<Deps...>{};

  std::shared_ptr<context_state> st;
  exec_place where;
  std::tuple<Deps...> deps;

  std::array<const task_dep_untyped*, sizeof...(Deps)> make_untyped() const {
    std::array<const task_dep_untyped*, sizeof...(Deps)> untyped{};
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((untyped[idx++] = &d.untyped), ...); },
               deps);
    return untyped;
  }

  places save_places() const {
    places out;
    std::size_t idx = 0;
    std::apply([&](const auto&... d) { ((out[idx++] = d.untyped.place), ...); },
               deps);
    return out;
  }

  void restore_places(const places& in) {
    std::size_t idx = 0;
    std::apply([&](auto&... d) { ((d.untyped.place = in[idx++]), ...); },
               deps);
  }

  /// The one op_hooks implementation, closing over the typed dependency
  /// tuple: acquire, plan, bind and release are shared; run builds the
  /// typed views and hands each shard to the builder's run_shard().
  template <class Builder, class Fn>
  struct hooks final : op_hooks {
    builder_core& c;
    Builder& b;
    submit_pipeline& pipe;
    Fn& fn;
    places res;
    std::optional<places> requested;  ///< grid ops: places before any bind

    hooks(builder_core& c_, Builder& b_, submit_pipeline& pipe_, Fn& fn_)
        : c(c_), b(b_), pipe(pipe_), fn(fn_) {
      resolved = res.data();
    }

    std::vector<int> plan() override {
      // Remember the requested places on the first round and restore them
      // on every later one: a retry after a device loss re-binds against
      // the current survivors.
      if (requested) {
        c.restore_places(*requested);
      } else {
        requested = c.save_places();
      }
      return resolve_devices(c.where, *c.st->plat);
    }

    void bind(const std::vector<int>& devices) override {
      if (devices.size() > 1) {
        gridify_places(c.deps, default_composite(devices), seq);
      }
    }

    event_list acquire(int lead_device) override {
      return acquire_all(*c.st, lead_device, res, c.deps, seq);
    }

    void run(const int* devices, std::size_t ndev, const event_list& ready,
             event_list& done, resilient_result* rr) override {
      auto views = make_views(res, c.deps, seq);
      for (std::size_t i = 0; i < ndev; ++i) {
        b.run_shard(
            shard_args{pipe, res.data(), devices, ndev, i, ready, done, rr},
            fn, views);
        if (rr != nullptr && rr->status != cudasim::sim_status::success) {
          return;  // *rr holds the failed shard's result
        }
      }
    }

    void release(const event_list& done) override {
      release_all(*c.st, res, c.deps, done, seq);
    }
  };

  /// Lowers one submission of builder `b` under the context lock:
  /// completes `op` with the untyped dependency array, runs the admission
  /// stage and calls drive(pipe, hooks) with the construct's driver. The
  /// requeue closure copies the builder before plan/bind mutate the
  /// requested places, so a replay/retry re-enters verbatim. While
  /// parallel_submit workers are live the lowering goes through the
  /// combiner (DESIGN.md §11), which runs it on whichever thread drains.
  template <class Builder, class Fn, class Drive>
  void submit(Builder& b, Fn& fn, op_desc op, Drive&& drive) {
    auto lowered = [&] {
      const auto untyped = make_untyped();
      op.deps = untyped.data();
      op.n_deps = untyped.size();
      submit_pipeline pipe(*st, op);
      pipe.stage_admission(pipe.needs_requeue() ? make_requeue(b, fn)
                                                : std::function<void()>{});
      hooks<Builder, Fn> h(*this, b, pipe, fn);
      drive(pipe, h);
    };
    if (st->mt_active.load(std::memory_order_acquire)) [[unlikely]] {
      st->combine(lowered);
      return;
    }
    structural_lock lock(*st);
    lowered();
  }
};

}  // namespace cudastf::detail

namespace cudastf {

/// Builder returned by ctx.task(...). The task body is attached with the
/// ->* operator and submitted immediately (asynchronously).
template <class... Deps>
class [[nodiscard]] task_builder {
 public:
  task_builder(std::shared_ptr<context_state> st, exec_place where,
               Deps... deps)
      : core_{std::move(st), std::move(where), {std::move(deps)...}} {}

  /// Names the task (shown in summaries; feeds graph memoization).
  task_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }

  /// Marks the task for dual-execution verification (integrity engine,
  /// DESIGN.md §10): the body runs twice from the same pre-state and the
  /// result is accepted only when both executions agree on every written
  /// dependency's bytes — a third run votes on disagreement, and no
  /// majority escalates as data corruption. Requires an armed integrity
  /// engine (ctx.integrity_options()); a no-op otherwise.
  task_builder&& verified() && {
    verified_ = true;
    return std::move(*this);
  }

  /// Arms a per-task deadline in virtual seconds (hang recovery,
  /// DESIGN.md §12): if the task has not completed this long after
  /// submission, the monitor cancels the wedged operation and escalates
  /// (retry in place -> quarantine -> epoch restart -> poison-cancel).
  /// Creates the context's deadline monitor on first use.
  task_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  /// Shed instead of block at a full admission window (ctx.try_task()):
  /// the submission throws overload_error without acquiring anything.
  task_builder&& shed_on_overload() && {
    shed_ = true;
    return std::move(*this);
  }

  /// Submits the task. `fn` receives (stream&, views...).
  template <class Fn>
  void operator->*(Fn&& fn) && {
    if (core_.where.is_grid()) {
      throw std::logic_error(
          "cudastf: plain task() does not span device grids; use "
          "parallel_for or launch");
    }
    if (core_.where.is_host()) {
      throw std::logic_error(
          "cudastf: use ctx.host_launch() for host-side tasks");
    }
    core_.submit(*this, fn,
                 {.kind = op_kind::task,
                  .symbol = &symbol_,
                  .deadline = deadline_,
                  .verified = verified_,
                  .shed = shed_},
                 [&](detail::submit_pipeline& pipe, detail::op_hooks& h) {
                   pipe.execute_task(h, pipe.choose_device(core_.where));
                 });
  }

 private:
  friend struct detail::builder_core<Deps...>;

  template <class Fn, class Views>
  void run_shard(const detail::shard_args& a, Fn& fn, Views& views) {
    // The body runs synchronously inside the backend submission, so the
    // payload may reference the builder-frame callable by pointer.
    auto payload = [f = &fn, views](cudasim::stream& s) mutable {
      std::apply([&](auto&... v) { (*f)(s, v...); }, views);
    };
    a.pipe.run_shard(a.devices[0], a.ready, payload, a.done, a.rr);
  }

  detail::builder_core<Deps...> core_;
  std::string symbol_ = "task";
  bool verified_ = false;  ///< dual-execution voting requested (.verified())
  double deadline_ = 0.0;  ///< per-task deadline, virtual seconds (0 = none)
  bool shed_ = false;      ///< shed instead of block at a full window
};

/// Builder for host tasks (CPU-bound work integrated in the DAG, e.g. the
/// miniWeather NetCDF output task). The body receives the typed views only;
/// it runs on the host once its dependencies are satisfied.
template <class... Deps>
class [[nodiscard]] host_launch_builder {
 public:
  host_launch_builder(std::shared_ptr<context_state> st, Deps... deps)
      : core_{std::move(st), exec_place::host(), {std::move(deps)...}} {}

  host_launch_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }

  /// Modelled host execution time (the simulated cost of the callback).
  host_launch_builder&& set_host_cost(double seconds) && {
    cost_ = seconds;
    return std::move(*this);
  }

  template <class Fn>
  void operator->*(Fn&& fn) && {
    core_.submit(*this, fn,
                 {.kind = op_kind::host,
                  .symbol = &symbol_,
                  .channel = backend_iface::channel::host},
                 [](detail::submit_pipeline& pipe, detail::op_hooks& h) {
                   pipe.execute_host(h);
                 });
  }

 private:
  friend struct detail::builder_core<Deps...>;

  template <class Fn, class Views>
  void run_shard(const detail::shard_args& a, Fn& fn, Views& views) {
    cudasim::platform* plat = core_.st->plat;
    const double cost = cost_;
    // The host callback fires at DES drain time, long after the builder
    // frame is gone: it must own a copy of the callable.
    auto payload = [g = fn, views, plat, cost](cudasim::stream& s) mutable {
      plat->launch_host_func(
          s,
          [g, views]() mutable {
            std::apply([&](auto&... v) { g(v...); }, views);
          },
          cost);
    };
    a.pipe.run_shard(0, a.ready, payload, a.done, a.rr);
  }

  detail::builder_core<Deps...> core_;
  std::string symbol_ = "host";
  double cost_ = 0.0;
};

}  // namespace cudastf
