// Abstract events and event lists (§IV). The entire core of CUDASTF is
// organized around lists of abstract events: every asynchronous algorithm
// takes a list of input events and returns a list of output events.
// Backends materialize events differently — the stream backend as recorded
// simulated CUDA events, the graph backend as graph-node handles — and the
// coherence machinery never looks inside.
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
#include <memory>
#include <utility>

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

/// An abstract completion event. Concrete subclasses live in the backends.
class backend_event {
 public:
  /// Backend tag, replacing dynamic_cast on the submission hot path.
  enum class event_kind : std::uint8_t { other, stream, graph_node };

  virtual ~backend_event() = default;

  event_kind kind() const { return kind_; }

  /// True once the work this event guards has completed; such events can be
  /// dropped from any list.
  virtual bool completed() const { return false; }

  /// Dominance key: events sharing a nonzero lane() are totally ordered by
  /// seq() (an in-order stream), so the largest seq() subsumes the rest.
  /// Lane 0 means "not comparable".
  virtual std::uint64_t lane() const { return 0; }
  virtual std::uint64_t seq() const { return 0; }

 protected:
  backend_event() = default;
  explicit backend_event(event_kind k) : kind_(k) {}

 private:
  event_kind kind_ = event_kind::other;
};

using event_ptr = std::shared_ptr<backend_event>;

/// A list of abstract events; completion of the list means completion of
/// every member. Inline capacity matches the "typically 0–4 entries"
/// invariant; copies are refcount bumps, moves are pointer steals.
class event_list {
 public:
  static constexpr std::size_t inline_capacity = 4;

  event_list() = default;
  explicit event_list(event_ptr e) {
    if (e) {
      data_[size_++] = std::move(e);
    }
  }

  event_list(const event_list& o) { copy_from(o); }
  event_list(event_list&& o) noexcept { move_from(o); }
  event_list& operator=(const event_list& o) {
    if (this != &o) {
      clear_storage();
      copy_from(o);
    }
    return *this;
  }
  event_list& operator=(event_list&& o) noexcept {
    if (this != &o) {
      clear_storage();
      move_from(o);
    }
    return *this;
  }
  ~event_list() { delete[] heap_; }

  /// Inserts `e` unless it is redundant. Returns the number of events this
  /// insertion pruned (the incoming one, or a dominated resident entry).
  std::size_t add(event_ptr e) {
    if (!e) {
      return 0;
    }
    const bool prune = fastpath().prune;
    if (prune) {
      if (e->completed()) {
        return 1;
      }
      const std::uint64_t lane = e->lane();
      for (std::size_t i = 0; i < size_; ++i) {
        event_ptr& cur = data_[i];
        if (cur == e) {
          return 1;
        }
        if (lane != 0 && cur->lane() == lane) {
          if (e->seq() <= cur->seq()) {
            return 1;  // incoming is (or is covered by) the resident event
          }
          cur = std::move(e);  // incoming dominates the resident event
          return 1;
        }
      }
    }
    if (size_ == cap_) {
      // Before spilling to the heap, try to compact away entries whose work
      // has since completed — lists usually stay within the inline buffer.
      std::size_t pruned = 0;
      if (prune) {
        pruned = prune_completed_entries();
      }
      if (size_ == cap_) {
        grow(cap_ * 2);
      }
      data_[size_++] = std::move(e);
      return pruned;
    }
    data_[size_++] = std::move(e);
    return 0;
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
      if (!data_[i]->completed()) {
        if (kept != i) {
          data_[kept] = std::move(data_[i]);
        }
        ++kept;
      }
    }
    const std::size_t pruned = size_ - kept;
    for (std::size_t i = kept; i < size_; ++i) {
      data_[i].reset();
    }
    size_ = kept;
    return pruned;
  }

  void reserve(std::size_t n) {
    if (n > cap_) {
      grow(n);
    }
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      data_[i].reset();
    }
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const event_ptr* begin() const { return data_; }
  const event_ptr* end() const { return data_ + size_; }

 private:
  void grow(std::size_t new_cap) {
    event_ptr* p = new event_ptr[new_cap];
    for (std::size_t i = 0; i < size_; ++i) {
      p[i] = std::move(data_[i]);
    }
    delete[] heap_;
    heap_ = p;
    data_ = p;
    cap_ = new_cap;
  }

  void copy_from(const event_list& o) {
    if (o.size_ > cap_) {
      grow(o.size_);
    }
    for (std::size_t i = 0; i < o.size_; ++i) {
      data_[i] = o.data_[i];
    }
    size_ = o.size_;
  }

  void move_from(event_list& o) noexcept {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      data_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.heap_ = nullptr;
      o.data_ = o.inline_;
      o.cap_ = inline_capacity;
      o.size_ = 0;
    } else {
      for (std::size_t i = 0; i < o.size_; ++i) {
        data_[i] = std::move(o.data_[i]);
        o.data_[i].reset();
      }
      size_ = o.size_;
      o.size_ = 0;
    }
  }

  /// Resets to the empty inline state (keeps no heap block).
  void clear_storage() {
    for (std::size_t i = 0; i < size_; ++i) {
      data_[i].reset();
    }
    size_ = 0;
    delete[] heap_;
    heap_ = nullptr;
    data_ = inline_;
    cap_ = inline_capacity;
  }

  event_ptr inline_[inline_capacity];
  event_ptr* heap_ = nullptr;
  event_ptr* data_ = inline_;
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
