// Abstract events and event lists (§IV). The entire core of CUDASTF is
// organized around lists of abstract events: every asynchronous algorithm
// takes a list of input events and returns a list of output events.
//
// An event is a plain, trivially copyable value: the stream backend's
// events are a recorded stream tail (a generation-tagged DES node handle)
// with the recording stream's uid and record sequence number, the graph
// backend's are a node index in the graph of one epoch, and the empty
// value means "nothing to wait for". The coherence machinery never looks
// inside; copying an event or a list of them owns and counts nothing.
//
// Lists are small (typically 0–4 entries), so storage is an inline buffer
// that only spills to the heap for pathological fan-in. Merging prunes
// redundant entries (§IV): exact duplicates, events whose work has already
// completed, and events dominated by a later event recorded on the same
// in-order stream. Pruning keeps lists tiny and directly shrinks the
// dependencies the backends must wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "cudasim/des.hpp"

namespace cudastf {

/// Event-list pruning switch. Process-global; the timeline-identity tests
/// turn it off as their reference, the naive concatenating behavior
/// (simulated timelines must be identical either way).
struct fastpath_config {
  /// Drop exact duplicates, events the timeline already retired, and
  /// events dominated by a later one on the same in-order stream (§IV).
  bool prune = true;
};

inline fastpath_config& fastpath() {
  static fastpath_config cfg;
  return cfg;
}

/// An abstract completion event (§IV), by value. Two events are duplicates
/// when every field matches: the same record of the same stream, or the
/// same node of the same epoch graph.
struct event {
  enum class kind_t : std::uint8_t { none, stream, graph };

  kind_t kind = kind_t::none;
  std::uint32_t index = 0;  ///< graph: node index in its epoch's graph
  cudasim::node_ref node;   ///< stream: the recorded stream tail
  /// Dominance key: stream events sharing a lane (the recording stream's
  /// uid) are totally ordered by seq on that in-order stream, so the
  /// largest seq subsumes the rest. Lane 0 means "not comparable".
  std::uint64_t lane = 0;
  std::uint64_t seq = 0;  ///< stream: record sequence; graph: the epoch

  static event on_stream(cudasim::node_ref tail, std::uint64_t lane,
                         std::uint64_t seq) {
    return {kind_t::stream, 0, tail, lane, seq};
  }
  static event on_graph(std::uint32_t index, std::uint64_t epoch) {
    return {kind_t::graph, index, {}, 0, epoch};
  }

  explicit operator bool() const { return kind != kind_t::none; }
  bool is_stream() const { return kind == kind_t::stream; }
  bool is_graph() const { return kind == kind_t::graph; }
  std::uint64_t epoch() const { return seq; }

  /// True once the work this event guards has completed; such events can
  /// be dropped from any list. Lock-free (node_ref::done()). Graph events
  /// have no individual completion and never read completed.
  bool completed() const { return is_stream() && node.done(); }

  friend bool operator==(const event&, const event&) = default;
};

static_assert(std::is_trivially_copyable_v<event>);
static_assert(sizeof(event) <= 40);

/// A list of abstract events; completion of the list means completion of
/// every member. Inline capacity matches the "typically 0–4 entries"
/// invariant; copies are memcpys, moves steal a spilled buffer.
class event_list {
 public:
  static constexpr std::size_t inline_capacity = 4;

  event_list() = default;
  explicit event_list(event e) {
    if (e) {
      data_[size_++] = e;
    }
  }

  event_list(const event_list& o) { copy_from(o); }
  event_list(event_list&& o) noexcept { move_from(o); }
  event_list& operator=(const event_list& o) {
    if (this != &o) {
      size_ = 0;
      copy_from(o);
    }
    return *this;
  }
  event_list& operator=(event_list&& o) noexcept {
    if (this != &o) {
      release_heap();
      size_ = 0;
      move_from(o);
    }
    return *this;
  }
  ~event_list() { delete[] heap_; }

  /// Inserts `e` unless it is redundant. Returns the number of events this
  /// insertion pruned (the incoming one, or a dominated resident entry).
  std::size_t add(event e) {
    if (!e) {
      return 0;
    }
    const bool prune = fastpath().prune;
    if (prune) {
      if (e.completed()) {
        return 1;
      }
      for (std::size_t i = 0; i < size_; ++i) {
        event& cur = data_[i];
        if (cur == e) {
          return 1;
        }
        if (e.lane != 0 && cur.lane == e.lane) {
          if (e.seq > cur.seq) {
            cur = e;  // incoming dominates the resident event
          }
          return 1;  // otherwise incoming is covered by the resident event
        }
      }
    }
    std::size_t pruned = 0;
    if (size_ == cap_) {
      // Before spilling to the heap, try to compact away entries whose work
      // has since completed — lists usually stay within the inline buffer.
      if (prune) {
        pruned = prune_completed_entries();
      }
      if (size_ == cap_) {
        grow(cap_ * 2);
      }
    }
    data_[size_++] = e;
    return pruned;
  }

  /// l = merge(l, other) — the paper's fundamental composition primitive.
  /// Returns the number of redundant events pruned by the merge.
  std::size_t merge(const event_list& other) {
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < other.size_; ++i) {
      pruned += add(other.data_[i]);
    }
    return pruned;
  }

  /// Drops entries whose work already completed; returns how many.
  std::size_t prune_completed_entries() {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!data_[i].completed()) {
        data_[kept++] = data_[i];
      }
    }
    const std::size_t pruned = size_ - kept;
    size_ = kept;
    return pruned;
  }

  void reserve(std::size_t n) {
    if (n > cap_) {
      grow(n);
    }
  }

  void clear() { size_ = 0; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const event* begin() const { return data_; }
  const event* end() const { return data_ + size_; }

 private:
  void grow(std::size_t new_cap) {
    event* p = new event[new_cap];
    std::memcpy(p, data_, size_ * sizeof(event));
    delete[] heap_;
    heap_ = p;
    data_ = p;
    cap_ = new_cap;
  }

  void copy_from(const event_list& o) {
    if (o.size_ > cap_) {
      grow(o.size_);
    }
    std::memcpy(data_, o.data_, o.size_ * sizeof(event));
    size_ = o.size_;
  }

  void move_from(event_list& o) noexcept {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      data_ = o.heap_;
      cap_ = o.cap_;
      o.heap_ = nullptr;
      o.data_ = o.inline_;
      o.cap_ = inline_capacity;
    } else {
      std::memcpy(data_, o.data_, o.size_ * sizeof(event));
    }
    size_ = o.size_;
    o.size_ = 0;
  }

  /// Returns to the inline buffer (keeps no heap block).
  void release_heap() {
    delete[] heap_;
    heap_ = nullptr;
    data_ = inline_;
    cap_ = inline_capacity;
  }

  event inline_[inline_capacity];
  event* heap_ = nullptr;
  event* data_ = inline_;
  std::size_t size_ = 0;
  std::size_t cap_ = inline_capacity;
};

/// Convenience: merged copy of two lists.
inline event_list merged(const event_list& a, const event_list& b) {
  event_list out;
  out.reserve(a.size() + b.size());
  out.merge(a);
  out.merge(b);
  return out;
}

}  // namespace cudastf
