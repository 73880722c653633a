// sim::EventQueue against the queue it replaced: a std::priority_queue
// ordered by (time, sequence number), the sequence number stamped on every
// push. Popping must yield the same items at the same times in the same
// order. A seeded random stream drives both the way FabricSim does: pushes
// at now or later with many equal times, run_until-style drains to
// horizons that often fall between pending times, pushes at the draining
// time itself (zero-delay events) and later ones while a bucket drains,
// and the queue run dry and refilled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include "relogic/common/rng.hpp"
#include "relogic/sim/event_queue.hpp"

namespace relogic::sim {
namespace {

/// The replaced queue: min-(time, seq) priority queue.
class ReferenceQueue {
 public:
  bool empty() const { return heap_.empty(); }
  SimTime next_time() const { return heap_.top().time; }
  void push(SimTime t, int id) { heap_.push(Entry{t, ++seq_, id}); }
  int pop() {
    const int id = heap_.top().id;
    heap_.pop();
    return id;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    int id;
  };
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Order> heap_;
  std::uint64_t seq_ = 0;
};

struct Coverage {
  int ties = 0;              ///< pushes onto a time already pending
  int pushes_at_drain = 0;   ///< pushes at the time being drained
  int refills = 0;           ///< pushes into a queue run dry
  int between_buckets = 0;   ///< drains stopping before a pending time
};

class Pair {
 public:
  explicit Pair(Coverage& cov) : cov_(&cov) {}

  void push(SimTime t, bool draining) {
    if (queue_.empty()) ++cov_->refills;
    if (draining) ++cov_->pushes_at_drain;
    for (const SimTime p : pending_) {
      if (p == t) {
        ++cov_->ties;
        break;
      }
    }
    pending_.push_back(t);
    queue_.push(t, next_id_);
    ref_.push(t, next_id_);
    ++next_id_;
  }

  /// Pops one item from both; returns its time.
  SimTime pop_one() {
    EXPECT_EQ(queue_.next_time(), ref_.next_time());
    const SimTime t = ref_.next_time();
    const int got = queue_.pop();
    const int want = ref_.pop();
    EXPECT_EQ(got, want) << "at t=" << t.picoseconds() << " ps";
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (*it == t) {
        pending_.erase(it);
        break;
      }
    }
    return t;
  }

  bool empty() const {
    EXPECT_EQ(queue_.empty(), ref_.empty());
    return ref_.empty();
  }
  SimTime next_time() const { return ref_.next_time(); }

 private:
  EventQueue<int> queue_;
  ReferenceQueue ref_;
  std::vector<SimTime> pending_;
  Coverage* cov_;
  int next_id_ = 0;
};

/// A delay from a small set, so many pushes share a time.
SimTime random_delay(Rng& rng) {
  static constexpr std::int64_t kDelays[] = {0, 0, 1, 250, 250, 400, 1000,
                                             100000};
  return SimTime::ps(kDelays[rng.next_below(std::size(kDelays))]);
}

TEST(EventQueue, PopsInTheTimeThenPushOrderOfASequencedPriorityQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    Coverage cov;
    Pair q(cov);
    SimTime now = SimTime::zero();
    for (int op = 0; op < 4000; ++op) {
      switch (rng.next_int(0, 3)) {
        case 0:
        case 1: {
          const int k = rng.next_int(1, 6);
          for (int i = 0; i < k; ++i) q.push(now + random_delay(rng), false);
          break;
        }
        case 2: {
          // run_until(horizon): each pop may schedule more, at its own time
          // (zero delay) or later.
          const SimTime horizon = now + SimTime::ps(rng.next_int(0, 1200));
          while (!q.empty() && q.next_time() <= horizon) {
            now = q.pop_one();
            if (rng.next_bool(0.3)) {
              const SimTime d = random_delay(rng);
              q.push(now + d, d == SimTime::zero());
            }
          }
          if (!q.empty()) ++cov.between_buckets;
          now = horizon;
          break;
        }
        default:
          while (!q.empty()) now = q.pop_one();
          break;
      }
      if (::testing::Test::HasFailure())
        FAIL() << "seed " << seed << " op " << op;
    }
    while (!q.empty()) q.pop_one();

    EXPECT_GT(cov.ties, 100) << "seed " << seed;
    EXPECT_GT(cov.pushes_at_drain, 10) << "seed " << seed;
    EXPECT_GT(cov.refills, 10) << "seed " << seed;
    EXPECT_GT(cov.between_buckets, 10) << "seed " << seed;
  }
}

TEST(EventQueue, LongRunReusesFreedNodesAcrossManyTimes) {
  // A simulator-like steady state: a few dozen items pending over a spread
  // of times, drained one horizon at a time and refilled as they pop. The
  // pushes outnumber the most ever pending many times over, so most items
  // sit in nodes freed by items of earlier times, and most pushes open a
  // fresh bucket.
  Rng rng(17);
  Coverage cov;
  Pair q(cov);
  SimTime now = SimTime::zero();
  std::int64_t pushes = 0;
  std::size_t pending = 0;
  std::size_t max_pending = 0;
  auto push = [&](SimTime t, bool draining) {
    q.push(t, draining);
    ++pushes;
    max_pending = std::max(max_pending, ++pending);
  };
  for (int round = 0; round < 20000; ++round) {
    while (pending < 24) {
      const SimTime d = rng.next_bool(0.5)
                            ? random_delay(rng)
                            : SimTime::ps(rng.next_int(1, 3000));
      push(now + d, false);
    }
    const SimTime horizon = now + SimTime::ps(rng.next_int(0, 1500));
    while (!q.empty() && q.next_time() <= horizon) {
      now = q.pop_one();
      --pending;
      if (rng.next_bool(0.5)) {
        const SimTime d = random_delay(rng);
        push(now + d, d == SimTime::zero());
      }
    }
    now = horizon;
    if (::testing::Test::HasFailure()) FAIL() << "round " << round;
  }
  while (!q.empty()) q.pop_one();

  EXPECT_GT(pushes, 1000 * static_cast<std::int64_t>(max_pending));
  EXPECT_LT(cov.ties, pushes / 2);  // most pushes open a bucket
  EXPECT_GT(cov.pushes_at_drain, 1000);
}

TEST(EventQueue, ZeroDelayPushJoinsTheDrainingTimeAfterItsPendingItems) {
  EventQueue<int> q;
  q.push(SimTime::ps(5), 1);
  q.push(SimTime::ps(5), 2);
  q.push(SimTime::ps(9), 3);
  EXPECT_EQ(q.pop(), 1);
  q.push(SimTime::ps(5), 4);  // pushed while t = 5 drains
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.next_time(), SimTime::ps(5));
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.next_time(), SimTime::ps(9));
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), ContractError);
}

}  // namespace
}  // namespace relogic::sim
