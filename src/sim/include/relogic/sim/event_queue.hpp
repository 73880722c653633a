// EventQueue: the pending-event set of the fabric simulator.
//
// A time-bucketed FIFO in the spirit of calendar queues (Brown, CACM 1988):
// one bucket per distinct pending time, items within a bucket in push
// order. Popping yields ascending time and, among equal times, push order
// — exactly the (time, sequence number) order of a priority queue that
// stamps every push with an increasing sequence number, without storing
// the number or sifting a heap. The simulator's pending times are few (the
// LUT, clock-to-Q and routed path delays past now, and the next clock
// edges), so the bucket list stays short and a push is a short binary
// search plus an append.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/time.hpp"

namespace relogic::sim {

template <class T>
class EventQueue {
 public:
  bool empty() const { return buckets_.empty(); }

  /// Earliest pending time. Precondition: !empty().
  SimTime next_time() const {
    RELOGIC_CHECK(!buckets_.empty());
    return buckets_.back().time;
  }

  /// Adds an item due at `t`, after every pending item due at `t`.
  void push(SimTime t, const T& item) {
    // Buckets are sorted by descending time, so the earliest is at the
    // back and draining it never shifts the others.
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), t,
        [](const Bucket& b, SimTime time) { return b.time > time; });
    if (it != buckets_.end() && it->time == t) {
      it->items.push_back(item);
      return;
    }
    Bucket fresh{t, {}, 0};
    if (!spare_.empty()) {
      fresh.items = std::move(spare_.back());
      spare_.pop_back();
    }
    fresh.items.push_back(item);
    buckets_.insert(it, std::move(fresh));
  }

  /// Removes and returns the earliest item (the first pushed among the
  /// earliest). Precondition: !empty().
  T pop() {
    RELOGIC_CHECK(!buckets_.empty());
    Bucket& b = buckets_.back();
    const T item = b.items[b.head++];
    if (b.head == b.items.size()) {
      b.items.clear();
      spare_.push_back(std::move(b.items));
      buckets_.pop_back();
    }
    return item;
  }

 private:
  struct Bucket {
    SimTime time;
    std::vector<T> items;
    std::size_t head = 0;  ///< items before it are popped
  };

  std::vector<Bucket> buckets_;  ///< descending time, none empty
  /// Storage of drained buckets, reused by new ones.
  std::vector<std::vector<T>> spare_;
};

}  // namespace relogic::sim
