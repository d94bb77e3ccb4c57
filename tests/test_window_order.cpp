// Differential tests for WindowOrder (util/window_order.h): for every window
// — random lane runs, all-equal times, a burst at one instant, keys that
// overflow the packed radix key — the order must equal std::stable_sort of
// the lane-ascending concatenation, with canonical_event_before for events
// and merged_before for completions.  Records carry a distinguishing
// payload, so a stability slip between exact ties fails the comparison.
#include "util/window_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/event.h"
#include "obs/sharded_sink.h"
#include "sim/completion.h"
#include "stream/sharded.h"
#include "util/rng.h"
#include "util/time.h"

namespace qos {
namespace {

using EventOrder = WindowOrder<Event, &Event::time, canonical_event_before>;
using CompletionOrder =
    WindowOrder<CompletionRecord, &CompletionRecord::finish,
                stream::merged_before>;

using EventRuns = std::vector<std::vector<Event>>;
using CompletionRuns = std::vector<std::vector<CompletionRecord>>;

template <class Order, class Record, class Before>
void expect_stable_sort_order(Order& order,
                              const std::vector<std::vector<Record>>& runs,
                              Before before) {
  std::vector<Record> want;
  for (const auto& run : runs) want.insert(want.end(), run.begin(), run.end());
  std::stable_sort(want.begin(), want.end(), before);
  order.clear();
  for (const auto& run : runs) order.append(run);
  const auto got = order.sort();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(*got[i], want[i]) << "at " << i << " of " << got.size();
}

void expect_event_order(const EventRuns& runs) {
  EventOrder order;
  expect_stable_sort_order(order, runs, canonical_event_before);
}

Event event_at(Time time, std::uint64_t seq, std::uint8_t server,
               std::int64_t tag) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.server = server;
  e.a = tag;  // distinguishes exact (time, seq, server) ties
  return e;
}

/// `lanes` runs, each non-decreasing in time over [base, base + span]; a
/// third of the lanes (never all) are empty.  Seqs are unique across lanes
/// and repeat within one — a request's several events — so exact ties
/// occur; within a run, equal times come in random seq order.
EventRuns random_event_window(Rng& rng, int lanes, Time base, Time span) {
  EventRuns runs(static_cast<std::size_t>(lanes));
  std::int64_t tag = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    if (lanes > 1 && rng.uniform_int(0, 2) == 0) continue;
    const auto count = rng.uniform_int(1, 120);
    std::vector<Time> times;
    for (std::int64_t k = 0; k < count; ++k)
      times.push_back(base + rng.uniform_int(0, span));
    std::sort(times.begin(), times.end());
    for (const Time t : times) {
      const auto request = static_cast<std::uint64_t>(rng.uniform_int(0, 40));
      runs[static_cast<std::size_t>(lane)].push_back(event_at(
          t, request * static_cast<std::uint64_t>(lanes) +
                 static_cast<std::uint64_t>(lane),
          static_cast<std::uint8_t>(rng.uniform_int(0, 1)), tag++));
    }
  }
  return runs;
}

TEST(WindowOrder, RandomEventWindowsMatchStableSort) {
  Rng rng(18);
  EventOrder order;  // one instance across windows: scratch reuse
  for (const int lanes : {1, 2, 8, 9, 64}) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(testing::Message() << lanes << " lanes, trial " << trial);
      // Spans from a handful of instants (dense ties) to ~2^30 us (several
      // radix passes).
      const Time span = Time{1} << rng.uniform_int(2, 30);
      const EventRuns runs =
          random_event_window(rng, lanes, rng.uniform_int(0, 1'000'000), span);
      expect_stable_sort_order(order, runs, canonical_event_before);
    }
  }
}

TEST(WindowOrder, RandomCompletionWindowsMatchStableSort) {
  Rng rng(7);
  CompletionOrder order;
  for (const int lanes : {1, 2, 8, 9, 64}) {
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(testing::Message() << lanes << " lanes, trial " << trial);
      // A lane's completions come in finish order with server-index ties,
      // not seq order, so equal finishes need the (seq, server) pass.
      CompletionRuns runs(static_cast<std::size_t>(lanes));
      std::uint64_t seq = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        if (lanes > 1 && rng.uniform_int(0, 2) == 0) continue;
        Time finish = rng.uniform_int(0, 1'000);
        const auto count = rng.uniform_int(1, 150);
        for (std::int64_t k = 0; k < count; ++k) {
          finish += rng.uniform_int(0, 3) == 0 ? 0 : rng.uniform_int(1, 500);
          CompletionRecord r;
          r.seq = (seq++ * 7919) % 100'003;  // unique, not lane-sorted
          r.client = static_cast<std::uint32_t>(lane);
          r.finish = finish;
          r.arrival = finish - rng.uniform_int(0, 100);
          r.start = r.arrival;
          r.server = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
          runs[static_cast<std::size_t>(lane)].push_back(r);
        }
      }
      expect_stable_sort_order(order, runs, stream::merged_before);
    }
  }
}

TEST(WindowOrder, EmptyAndSingleRecordWindows) {
  EventOrder order;
  order.clear();
  EXPECT_TRUE(order.sort().empty());
  expect_event_order({{}, {event_at(5, 1, 0, 0)}, {}});
}

TEST(WindowOrder, EveryRecordAtOneTime) {
  // One equal-time group: at or under kMaxInsertionGroup it takes the
  // insertion pass, above it the group's stable sort.  Seqs descend within
  // each lane and repeat across its records, so both passes must reorder
  // and keep exact ties in input order.
  for (const std::size_t per_lane : {std::size_t{4}, std::size_t{40}}) {
    SCOPED_TRACE(per_lane);
    EventRuns runs(8);
    std::int64_t tag = 0;
    for (std::uint64_t lane = 0; lane < runs.size(); ++lane)
      for (std::size_t k = 0; k < per_lane; ++k)
        runs[lane].push_back(event_at(
            1'000, (per_lane - k / 2) * runs.size() + lane, 0, tag++));
    expect_event_order(runs);
  }
}

TEST(WindowOrder, BurstAtOneInstantAcrossAllLanes) {
  // 64 lanes, each with a spread of records around one instant that every
  // lane hits several times: one equal-time group of 64 * 3 records amid
  // small groups.
  Rng rng(64);
  EventRuns runs(64);
  std::int64_t tag = 0;
  for (std::uint64_t lane = 0; lane < runs.size(); ++lane) {
    std::vector<Time> times{50'000, 50'000, 50'000};
    for (int k = 0; k < 20; ++k) times.push_back(rng.uniform_int(0, 100'000));
    std::sort(times.begin(), times.end());
    for (const Time t : times)
      runs[lane].push_back(event_at(
          t,
          static_cast<std::uint64_t>(rng.uniform_int(0, 9)) * runs.size() +
              lane,
          static_cast<std::uint8_t>(lane % 2), tag++));
  }
  expect_event_order(runs);
}

TEST(WindowOrder, KeysThatOverflowFallBackToStableSort) {
  // 1,000 records need 10 index bits, leaving 54 for the time offset: a
  // range of 2^54 - 1 still takes the radix path, 2^54 does not.  The
  // widest range, kTimeMax, fits two records but not three.
  const std::uint64_t n = 1'000;
  ASSERT_TRUE(packed_key_fits(n, (std::uint64_t{1} << 54) - 1));
  ASSERT_FALSE(packed_key_fits(n, std::uint64_t{1} << 54));
  ASSERT_TRUE(packed_key_fits(2, static_cast<std::uint64_t>(kTimeMax)));
  ASSERT_FALSE(packed_key_fits(3, static_cast<std::uint64_t>(kTimeMax)));
  ASSERT_TRUE(packed_key_fits(std::uint64_t{1} << 31, 0));
  ASSERT_FALSE(packed_key_fits((std::uint64_t{1} << 31) + 1, 0));

  for (const Time range : {(Time{1} << 54) - 1, Time{1} << 54}) {
    SCOPED_TRACE(range);
    Rng rng(static_cast<std::uint64_t>(range));
    EventRuns runs(4);
    std::int64_t tag = 0;
    for (std::uint64_t lane = 0; lane < runs.size(); ++lane) {
      std::vector<Time> times;
      for (std::uint64_t k = 0; k < n / runs.size(); ++k)
        times.push_back(rng.uniform_int(0, range));
      // Pin the range exactly, and add ties at both ends.
      times.front() = 0;
      times.back() = range;
      std::sort(times.begin(), times.end());
      for (const Time t : times) {
        const auto seq =
            static_cast<std::uint64_t>(tag % 50) * runs.size() + lane;
        runs[lane].push_back(event_at(t, seq, 0, tag++));
      }
    }
    expect_event_order(runs);
  }

  expect_event_order({{event_at(0, 0, 0, 0), event_at(kTimeMax, 4, 0, 1)},
                      {event_at(kTimeMax, 1, 0, 2)},
                      {event_at(3, 2, 1, 3), event_at(kTimeMax, 2, 0, 4)}});
}

TEST(WindowOrder, RunOutOfTimeOrderStillOrdersExactly) {
  // The runs are meant to be non-decreasing in time; a record earlier than
  // every run's front falls outside the packed key and takes the fallback,
  // and one earlier only than its own run's front is still in range.
  expect_event_order({{event_at(100, 0, 0, 0), event_at(5, 2, 0, 1)},
                      {event_at(50, 1, 0, 2), event_at(60, 3, 0, 3)}});
  expect_event_order({{event_at(100, 0, 0, 0), event_at(70, 2, 0, 1)},
                      {event_at(50, 1, 0, 2), event_at(60, 3, 0, 3)}});
}

}  // namespace
}  // namespace qos
