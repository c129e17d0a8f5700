// ctx.parallel_for(shape, deps...)->*body (§V, Fig. 4): executes the body
// once per shape coordinate as a generated kernel. On a grid execution
// place the shape is split across devices with a blocked partition and
// affine data moves to a composite data place (§VI), so the same body runs
// unchanged on one or many devices.
//
// Like task.hpp, this builder only lowers through the shared builder_core
// (DESIGN.md §13). The construct-specific parts kept here are the shape
// partitioning, the kernel cost model, the generated kernel bodies and the
// host branch.
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/logical_data.hpp"
#include "cudastf/partition.hpp"
#include "cudastf/task.hpp"

namespace cudastf::detail {

/// The context-wide blocked partitioner used for default composite places
/// (shared so equal composite places compare equal across tasks, §VI-C).
std::shared_ptr<const partitioner> default_partitioner();

/// Adds the traffic of one dependency's byte range [b0, b1) (fractions of
/// the instance) to a kernel descriptor as local/remote/host bytes from the
/// perspective of `device`.
void add_dep_traffic(cudasim::kernel_desc& k, const task_dep_untyped& dep,
                     const data_place& resolved, double frac0, double frac1,
                     int device);

template <class... Deps, std::size_t... I>
void add_all_traffic(cudasim::kernel_desc& k, const data_place* resolved,
                     const std::tuple<Deps...>& deps, double f0, double f1,
                     int device, std::index_sequence<I...>) {
  (add_dep_traffic(k, std::get<I>(deps).untyped, resolved[I], f0, f1, device),
   ...);
}

template <int R, class Fn, class Views, std::size_t... CI, std::size_t... VI>
void invoke_elem(Fn& fn, const std::array<std::size_t, R>& c, Views& views,
                 std::index_sequence<CI...>, std::index_sequence<VI...>) {
  fn(c[CI]..., std::get<VI>(views)...);
}

}  // namespace cudastf::detail

namespace cudastf {

template <int R, class... Deps>
class [[nodiscard]] parallel_for_builder {
 public:
  parallel_for_builder(std::shared_ptr<context_state> st, exec_place where,
                       box<R> shape, Deps... deps)
      : core_{std::move(st), std::move(where), {std::move(deps)...}},
        shape_(shape) {}

  parallel_for_builder&& set_symbol(std::string s) && {
    symbol_ = std::move(s);
    return std::move(*this);
  }
  /// Overrides the cost model: FLOPs charged per shape element.
  parallel_for_builder&& set_flops_per_element(double f) && {
    flops_per_elem_ = f;
    return std::move(*this);
  }
  /// Overrides the cost model: bytes charged per shape element
  /// (default: the sum of dependency element sizes).
  parallel_for_builder&& set_bytes_per_element(double b) && {
    bytes_per_elem_ = b;
    return std::move(*this);
  }
  /// Arms a virtual-time deadline (seconds) for this submission: if it is
  /// still incomplete past the deadline the wedged op is cancelled and the
  /// hang escalated (DESIGN.md §12).
  parallel_for_builder&& deadline(double seconds) && {
    deadline_ = seconds;
    return std::move(*this);
  }

  /// Structured constructs span grids / composite places: always
  /// structural (DESIGN.md §11).
  template <class Fn>
  void operator->*(Fn&& fn) && {
    const bool host = core_.where.is_host();
    core_.submit(*this, fn,
                 {.kind = op_kind::parallel_for,
                  .symbol = &symbol_,
                  .channel = host ? backend_iface::channel::host
                                  : backend_iface::channel::compute,
                  .deadline = deadline_},
                 [host](detail::submit_pipeline& pipe, detail::op_hooks& h) {
                   if (host) {
                     pipe.execute_host(h);
                   } else {
                     pipe.execute_grid(h);
                   }
                 });
  }

 private:
  friend struct detail::builder_core<Deps...>;

  template <class Fn, class Views>
  void run_shard(const detail::shard_args& a, Fn& fn, Views& views) {
    if (core_.where.is_host()) {
      run_host(a, fn, views);
    } else {
      run_device_shard(a, fn, views);
    }
  }

  /// Builds and submits the generated kernel of shard `a.i` over
  /// `a.devices` (blocked partition of the shape, §V-3).
  template <class Fn, class Views>
  void run_device_shard(const detail::shard_args& a, Fn& fn, Views& views) {
    const std::size_t total = shape_.size();
    const blocked_partitioner blocked;
    const auto span = blocked.assign(total, a.i, a.ndev);
    const std::size_t elems = span.end - span.begin;
    if (elems == 0 && a.ndev > 1) {
      return;  // empty shard of a grid split: nothing to submit
    }
    cudasim::kernel_desc k;
    k.name = symbol_;
    k.flops = static_cast<double>(elems) * flops_per_elem_ / efficiency_;
    if (bytes_per_elem_ >= 0) {
      k.bytes = static_cast<double>(elems) * bytes_per_elem_ / efficiency_;
    } else if (total > 0) {
      const double f0 =
          static_cast<double>(span.begin) / static_cast<double>(total);
      const double f1 =
          static_cast<double>(span.end) / static_cast<double>(total);
      detail::add_all_traffic(k, a.resolved, core_.deps, f0, f1,
                              a.devices[a.i], core_.seq);
      k.bytes /= efficiency_;
    }
    cudasim::platform* plat = core_.st->plat;
    // By value: the body runs at drain time, after this frame is gone.
    std::function<void()> body =
        plat->kernel_body([fn, views, shape = shape_, span]() mutable {
          for (std::size_t lin = span.begin; lin < span.end;
               lin += span.stride) {
            detail::invoke_elem<R>(fn, shape.index_to_coords(lin), views,
                                   std::make_index_sequence<R>{},
                                   std::index_sequence_for<Deps...>{});
          }
        });
    auto payload = [plat, k, body](cudasim::stream& s) {
      plat->launch_kernel(s, k, body);
    };
    a.pipe.run_shard(a.devices[a.i], a.ready, payload, a.done, a.rr);
  }

  /// Host execution (where is the host): the whole shape runs as one host
  /// callback at drain time.
  template <class Fn, class Views>
  void run_host(const detail::shard_args& a, Fn& fn, Views& views) {
    cudasim::platform* plat = core_.st->plat;
    auto shape = shape_;
    // By value: the callback runs at drain time, after this frame is gone.
    auto payload = [plat, fn, views, shape](cudasim::stream& s) mutable {
      plat->launch_host_func(s, [fn, views, shape]() mutable {
        for (std::size_t lin = 0; lin < shape.size(); ++lin) {
          detail::invoke_elem<R>(fn, shape.index_to_coords(lin), views,
                                 std::make_index_sequence<R>{},
                                 std::index_sequence_for<Deps...>{});
        }
      });
    };
    a.pipe.run_shard(0, a.ready, payload, a.done, a.rr);
  }

  detail::builder_core<Deps...> core_;
  box<R> shape_;
  std::string symbol_ = "parallel_for";
  double deadline_ = 0.0;
  double flops_per_elem_ = 2.0;
  double bytes_per_elem_ = -1.0;
  double efficiency_ = 0.90;  ///< generated kernels vs hand-tuned libraries
};

}  // namespace cudastf
