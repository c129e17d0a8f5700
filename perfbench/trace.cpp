#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(layer l) {
  switch (l) {
    case layer::rep: return "rep";
    case layer::app: return "app.step";
    case layer::task: return "cudastf.task";
    case layer::parallel_for: return "cudastf.parallel_for";
    case layer::fence: return "cudastf.fence";
    case layer::finalize: return "cudastf.finalize";
    case layer::parallel_submit: return "cudastf.parallel_submit";
    case layer::synchronize: return "cudasim.synchronize";
    case layer::count: break;
  }
  return "?";
}

void tracer::begin_rep() {
  if (!stack_.empty()) {
    throw std::logic_error("tracer: rep begun inside an open span");
  }
  self_ = {};
  open(layer::rep);
}

layer_seconds tracer::end_rep() {
  close();
  if (!stack_.empty()) {
    throw std::logic_error("tracer: rep ended with spans still open");
  }
  ++rep_;
  return self_;
}

void tracer::open(layer l) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back({l, next_id_++, parent, now_ns(), 0});
}

void tracer::close() {
  const std::int64_t end = now_ns();
  const open_span s = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - s.start;
  self_[static_cast<std::size_t>(s.l)] += 1e-9 * static_cast<double>(dur - s.child_ns);
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  if (static_cast<int>(rep_) < keep_reps_) {
    kept_.push_back({s.l, rep_, s.id, s.parent, s.start, end});
  }
}

bool tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  bool first = true;
  for (const span& s : kept_) {
    // ts/dur are microseconds (the format's unit); the exact integer
    // nanoseconds ride along in args for self-time checks.
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                 "\"parent\": %u, \"rep\": %u, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}}",
                 first ? "" : ",", layer_name(s.l),
                 1e-3 * static_cast<double>(s.start - t0),
                 1e-3 * static_cast<double>(s.end - s.start), s.id, s.parent,
                 s.rep, static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
