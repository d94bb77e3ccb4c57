// Unit and differential tests for the hot-path containers introduced by the
// event-core overhaul: RingBuffer (pooled deque replacement), IndexedMinHeap
// (scan-order-compatible priority queue, with its lazily grown position
// table) and MonotoneMinQueue (Miser's slack window).  The randomized
// sections drive each structure and its textbook counterpart (std::deque /
// linear scan / std::multiset) through identical seeded op streams and
// demand identical answers at every step.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "util/indexed_heap.h"
#include "util/monotone_min.h"
#include "util/ring_buffer.h"
#include "util/rng.h"

namespace qos {
namespace {

TEST(RingBuffer, FifoOrderAcrossGrowth) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  for (int i = 0; i < 100; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapAroundKeepsOrder) {
  RingBuffer<int> rb;
  int next_in = 0, next_out = 0;
  // Oscillate around a small steady state so the head index laps the
  // backing array many times without triggering growth.
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k < 5; ++k) rb.push_back(next_in++);
    for (int k = 0; k < 5; ++k) {
      ASSERT_EQ(rb.front(), next_out++);
      rb.pop_front();
    }
  }
  EXPECT_TRUE(rb.empty());
  EXPECT_LE(rb.capacity(), 8u);  // never grew past the minimum pool
}

TEST(RingBuffer, IndexingIsFifoRelative) {
  RingBuffer<int> rb;
  for (int i = 0; i < 10; ++i) rb.push_back(i);
  rb.pop_front();
  rb.pop_front();
  EXPECT_EQ(rb[0], 2);
  EXPECT_EQ(rb[7], 9);
  EXPECT_EQ(rb.back(), 9);
}

TEST(RingBuffer, PopBackAndClear) {
  RingBuffer<int> rb;
  for (int i = 0; i < 4; ++i) rb.push_back(i);
  rb.pop_back();
  EXPECT_EQ(rb.back(), 2);
  const std::size_t cap = rb.capacity();
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), cap);  // pool retained
}

TEST(RingBuffer, ReserveRoundsToPowerOfTwo) {
  RingBuffer<int> rb;
  rb.reserve(100);
  EXPECT_EQ(rb.capacity(), 128u);
  rb.reserve(10);  // never shrinks
  EXPECT_EQ(rb.capacity(), 128u);
}

TEST(RingBufferDeath, ReserveBeyondPow2RangeAborts) {
  // A request above the largest representable power of two used to make
  // ceil_pow2's doubling loop shift into zero and spin; it must abort on
  // the precondition instead.
  RingBuffer<int> rb;
  EXPECT_DEATH(rb.reserve(std::numeric_limits<std::size_t>::max()),
               "Precondition");
  EXPECT_DEATH(
      rb.reserve((static_cast<std::size_t>(1) << 63) + 1), "Precondition");
}

TEST(RingBuffer, DifferentialAgainstDeque) {
  RingBuffer<std::int64_t> rb;
  std::deque<std::int64_t> dq;
  Rng rng(42);
  for (int op = 0; op < 20'000; ++op) {
    const double p = rng.next_double();
    if (p < 0.5 || dq.empty()) {
      const std::int64_t v = rng.uniform_int(-1000, 1000);
      rb.push_back(v);
      dq.push_back(v);
    } else if (p < 0.85) {
      ASSERT_EQ(rb.front(), dq.front());
      rb.pop_front();
      dq.pop_front();
    } else {
      ASSERT_EQ(rb.back(), dq.back());
      rb.pop_back();
      dq.pop_back();
    }
    ASSERT_EQ(rb.size(), dq.size());
    if (!dq.empty()) {
      ASSERT_EQ(rb.front(), dq.front());
      ASSERT_EQ(rb.back(), dq.back());
      const std::size_t i =
          static_cast<std::size_t>(rng.uniform_int(0, dq.size() - 1));
      ASSERT_EQ(rb[i], dq[i]);
    }
  }
}

TEST(IndexedMinHeap, PopsInKeyThenIdOrder) {
  IndexedMinHeap<int> h(8);
  h.push(3, 20);
  h.push(7, 10);
  h.push(1, 20);
  h.push(5, 10);
  // Equal keys must pop lowest id first — the scan-compatible tie-break.
  EXPECT_EQ(h.pop(), 5);
  EXPECT_EQ(h.pop(), 7);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_EQ(h.pop(), 3);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeap, UpdateMovesBothDirections) {
  IndexedMinHeap<int> h(4);
  h.push(0, 10);
  h.push(1, 20);
  h.push(2, 30);
  h.update(2, 5);  // up
  EXPECT_EQ(h.top(), 2);
  h.update(2, 25);  // down, between ids 0 and 1
  EXPECT_EQ(h.top(), 0);
  EXPECT_EQ(h.pop(), 0);
  EXPECT_EQ(h.top_key(), 20);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_EQ(h.top_key(), 25);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedMinHeap, ResetClearsAndResizes) {
  IndexedMinHeap<int> h(2);
  h.push(0, 1);
  h.reset(16);
  EXPECT_TRUE(h.empty());
  h.push(15, 7);
  EXPECT_EQ(h.top(), 15);
}

TEST(IndexedMinHeap, DifferentialAgainstLinearScan) {
  // The heap must replicate the exact total order of an ascending-index
  // strict-< scan: pop == argmin over (key, id).
  constexpr int kIds = 64;
  IndexedMinHeap<std::int64_t> h(kIds);
  std::vector<std::int64_t> key(kIds);
  std::vector<bool> in(kIds, false);
  auto scan_min = [&] {
    int best = -1;
    for (int i = 0; i < kIds; ++i) {
      if (!in[i]) continue;
      if (best < 0 || key[static_cast<std::size_t>(i)] <
                          key[static_cast<std::size_t>(best)])
        best = i;
    }
    return best;
  };
  Rng rng(7);
  for (int op = 0; op < 20'000; ++op) {
    const int id = static_cast<int>(rng.uniform_int(0, kIds - 1));
    const std::int64_t k = rng.uniform_int(0, 50);  // small range => many ties
    const double p = rng.next_double();
    if (!in[id]) {
      h.push(id, k);
      key[static_cast<std::size_t>(id)] = k;
      in[id] = true;
    } else if (p < 0.5) {
      h.update(id, k);
      key[static_cast<std::size_t>(id)] = k;
    } else {
      const int best = scan_min();
      ASSERT_EQ(h.pop(), best);
      in[best] = false;
    }
    if (!h.empty()) {
      const int best = scan_min();
      ASSERT_EQ(h.top(), best);
      ASSERT_EQ(h.top_key(), key[static_cast<std::size_t>(best)]);
    }
  }
}

// Lazy footprint: reset(huge) must not allocate, and the position table
// must track the largest id pushed, not the capacity bound.

TEST(IndexedMinHeapLazy, ResetReservesNothing) {
  IndexedMinHeap<double> h;
  h.reset(1'000'000);
  EXPECT_EQ(h.memory_bytes(), 0u);
}

TEST(IndexedMinHeapLazy, FootprintTracksMaxIdPushedNotCapacity) {
  IndexedMinHeap<double> h(1'000'000);
  for (int id = 0; id < 64; ++id) h.push(id, 1.0 * id);
  // 64 live nodes => a few KB, nowhere near the ~8 MB an eager position
  // table over 10^6 ids would cost.
  EXPECT_LT(h.memory_bytes(), 64u * 1024u);
  EXPECT_EQ(h.pop(), 0);
}

TEST(MonotoneMinQueue, TracksMinUnderFifoRetirement) {
  MonotoneMinQueue m;
  m.push_back(5);
  m.push_back(3);
  m.push_back(4);
  EXPECT_EQ(m.min(), 3);
  m.pop_front(5);  // FIFO front was 5, already evicted from the window
  EXPECT_EQ(m.min(), 3);
  m.pop_front(3);
  EXPECT_EQ(m.min(), 4);
  m.pop_front(4);
  EXPECT_TRUE(m.empty());
}

TEST(MonotoneMinQueue, DuplicatesStayBalanced) {
  MonotoneMinQueue m;
  m.push_back(2);
  m.push_back(2);
  m.push_back(2);
  m.pop_front(2);
  EXPECT_EQ(m.min(), 2);
  m.pop_front(2);
  EXPECT_EQ(m.min(), 2);
  m.pop_front(2);
  EXPECT_TRUE(m.empty());
}

TEST(MonotoneMinQueue, DifferentialAgainstMultiset) {
  // Replays Miser's exact usage: values retire in insertion order, min is
  // read after every op.  The multiset is the pre-overhaul bookkeeping.
  MonotoneMinQueue m;
  std::multiset<std::int64_t> ms;
  std::deque<std::int64_t> fifo;
  Rng rng(99);
  for (int op = 0; op < 20'000; ++op) {
    if (rng.next_double() < 0.55 || fifo.empty()) {
      const std::int64_t v = rng.uniform_int(-50, 50);
      m.push_back(v);
      ms.insert(v);
      fifo.push_back(v);
    } else {
      const std::int64_t v = fifo.front();
      fifo.pop_front();
      m.pop_front(v);
      ms.erase(ms.find(v));
    }
    ASSERT_EQ(m.empty(), ms.empty());
    if (!ms.empty()) {
      ASSERT_EQ(m.min(), *ms.begin());
    }
  }
}

}  // namespace
}  // namespace qos
