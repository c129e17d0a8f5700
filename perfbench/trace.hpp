// Host-time spans recorded from the benchmark's own files, around each call
// it makes into a layer's public API. Spans live in memory and are written
// at exit as Trace Event Format JSON (chrome://tracing, Perfetto).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Span names: the benchmark's per-rep root, the application step that
/// issues a batch, and one name per public entry point that is timed.
enum class layer : std::uint8_t {
  rep,              ///< one timed rep (submission + finalize)
  app,              ///< application batch: TaskBench step, miniWeather step, ...
  task,             ///< cudastf context::task
  parallel_for,     ///< cudastf context::parallel_for
  fence,            ///< cudastf context::fence
  finalize,         ///< cudastf context::finalize
  parallel_submit,  ///< cudastf context::parallel_submit (§11 threading)
  synchronize,      ///< cudasim platform::synchronize
  count
};
constexpr std::size_t n_layers = static_cast<std::size_t>(layer::count);
const char* layer_name(layer l);

using layer_seconds = std::array<double, n_layers>;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded span recorder. Self time (a span's duration minus its
/// children's) is folded per layer as each span closes, so only the spans
/// of the first `keep_reps` reps are stored for the trace file.
class tracer {
 public:
  explicit tracer(int keep_reps) : keep_reps_(keep_reps) {}

  void begin_rep();
  /// Closes the rep's root span and returns its self seconds per layer.
  layer_seconds end_rep();

  void open(layer l);
  void close();

  /// Writes every stored span; false if the file could not be written.
  bool write(const std::string& path) const;

 private:
  struct open_span {
    layer l;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct span {
    layer l;
    std::uint32_t rep;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t start;
    std::int64_t end;
  };

  int keep_reps_;
  std::uint32_t rep_ = 0;
  std::uint32_t next_id_ = 1;  // 0 means "no parent"
  std::vector<open_span> stack_;
  std::vector<span> kept_;
  layer_seconds self_{};
};

/// Opens a span for its lifetime; a no-op when tracing is off (null).
class span_guard {
 public:
  span_guard(tracer* t, layer l) : t_(t) {
    if (t_ != nullptr) {
      t_->open(l);
    }
  }
  ~span_guard() {
    if (t_ != nullptr) {
      t_->close();
    }
  }
  span_guard(const span_guard&) = delete;
  span_guard& operator=(const span_guard&) = delete;

 private:
  tracer* t_;
};

}  // namespace perfbench
