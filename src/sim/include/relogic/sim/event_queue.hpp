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
// search plus an O(1) link.
//
// Storage is flat (DESIGN.md §11.3): a bucket is a trivially copyable
// {time, head, tail} over one pooled array of singly linked item nodes,
// and popped nodes go to a free list that later pushes reuse. Opening or
// draining a bucket moves no container, and nothing allocates once the
// pool has grown to the largest pending-event count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "relogic/common/error.hpp"
#include "relogic/common/time.hpp"

namespace relogic::sim {

template <class T>
class EventQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "queue nodes are pooled and copied as plain data");

 public:
  bool empty() const { return buckets_.empty(); }

  /// Earliest pending time. Precondition: !empty().
  SimTime next_time() const {
    RELOGIC_CHECK(!buckets_.empty());
    return buckets_.back().time;
  }

  /// Adds an item due at `t`, after every pending item due at `t`.
  void push(SimTime t, const T& item) {
    const std::uint32_t node = allocate(item);
    // Buckets are sorted by descending time, so the earliest is at the
    // back and draining it never shifts the others.
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), t,
        [](const Bucket& b, SimTime time) { return b.time > time; });
    if (it != buckets_.end() && it->time == t) {
      nodes_[it->tail].next = node;
      it->tail = node;
      return;
    }
    buckets_.insert(it, Bucket{t, node, node});
  }

  /// Removes and returns the earliest item (the first pushed among the
  /// earliest). Precondition: !empty().
  T pop() {
    RELOGIC_CHECK(!buckets_.empty());
    Bucket& b = buckets_.back();
    const std::uint32_t node = b.head;
    const T item = nodes_[node].item;
    if (node == b.tail) {
      buckets_.pop_back();
    } else {
      b.head = nodes_[node].next;
    }
    nodes_[node].next = free_;
    free_ = node;
    return item;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Node {
    T item;
    std::uint32_t next;  ///< next node of the bucket, or of the free list
  };
  struct Bucket {
    SimTime time;
    std::uint32_t head;  ///< first unpopped item
    std::uint32_t tail;  ///< last pushed item
  };

  std::uint32_t allocate(const T& item) {
    if (free_ == kNil) {
      nodes_.push_back(Node{item, kNil});
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t node = free_;
    free_ = nodes_[node].next;
    nodes_[node] = Node{item, kNil};
    return node;
  }

  std::vector<Bucket> buckets_;  ///< descending time, none empty
  std::vector<Node> nodes_;      ///< item pool: bucket chains + free list
  std::uint32_t free_ = kNil;    ///< head of the free list
};

}  // namespace relogic::sim
