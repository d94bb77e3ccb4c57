#include <gtest/gtest.h>

#include "fq/drr.h"
#include "fq/wfq.h"

namespace qos {
namespace {

// ---------------------------------------------------------------------------
// WFQ (SCFQ virtual time)

TEST(Wfq, ProportionalShareUnderBacklog) {
  WfqScheduler wfq({3.0, 1.0});
  for (std::uint64_t i = 0; i < 40; ++i) {
    wfq.enqueue(0, i, 1.0, 0);
    wfq.enqueue(1, 1000 + i, 1.0, 0);
  }
  int flow0 = 0;
  for (int i = 0; i < 40; ++i) {
    auto d = wfq.dequeue(0);
    ASSERT_TRUE(d);
    if (d->flow == 0) ++flow0;
  }
  EXPECT_NEAR(flow0, 30, 2);
}

TEST(Wfq, WorkConservingWhenOneFlowIdle) {
  WfqScheduler wfq({1.0, 9.0});
  for (std::uint64_t i = 0; i < 6; ++i) wfq.enqueue(0, i, 1.0, 0);
  int served = 0;
  while (auto d = wfq.dequeue(0)) {
    EXPECT_EQ(d->flow, 0);
    ++served;
  }
  EXPECT_EQ(served, 6);
}

TEST(Wfq, FifoWithinFlow) {
  WfqScheduler wfq({2.0, 1.0});
  for (std::uint64_t i = 0; i < 8; ++i) wfq.enqueue(0, i, 1.0, 0);
  std::uint64_t expect = 0;
  while (auto d = wfq.dequeue(0)) EXPECT_EQ(d->handle, expect++);
}

TEST(Wfq, WakingFlowJoinsCurrentRound) {
  WfqScheduler wfq({1.0, 1.0});
  for (std::uint64_t i = 0; i < 10; ++i) wfq.enqueue(0, i, 1.0, 0);
  for (int i = 0; i < 10; ++i) (void)wfq.dequeue(0);
  EXPECT_GT(wfq.virtual_time(), 0);
  wfq.enqueue(1, 50, 1.0, 0);
  wfq.enqueue(0, 51, 1.0, 0);
  auto d1 = wfq.dequeue(0);
  auto d2 = wfq.dequeue(0);
  ASSERT_TRUE(d1 && d2);
  EXPECT_NE(d1->flow, d2->flow);  // neither flow owed idle history
}

TEST(Wfq, EmptyDequeue) {
  WfqScheduler wfq({1.0});
  EXPECT_FALSE(wfq.dequeue(0).has_value());
}

// ---------------------------------------------------------------------------
// DRR

TEST(Drr, ProportionalShareUnderBacklog) {
  DrrScheduler drr({3.0, 1.0}, 1.0);
  for (std::uint64_t i = 0; i < 60; ++i) {
    drr.enqueue(0, i, 1.0, 0);
    drr.enqueue(1, 1000 + i, 1.0, 0);
  }
  int flow0 = 0;
  for (int i = 0; i < 40; ++i) {
    auto d = drr.dequeue(0);
    ASSERT_TRUE(d);
    if (d->flow == 0) ++flow0;
  }
  EXPECT_NEAR(flow0, 30, 4);  // DRR is fair per round, coarser short-term
}

TEST(Drr, WorkConservingWhenOneFlowIdle) {
  DrrScheduler drr({1.0, 9.0}, 1.0);
  for (std::uint64_t i = 0; i < 5; ++i) drr.enqueue(1, i, 1.0, 0);
  int served = 0;
  while (auto d = drr.dequeue(0)) {
    EXPECT_EQ(d->flow, 1);
    ++served;
  }
  EXPECT_EQ(served, 5);
}

TEST(Drr, FifoWithinFlow) {
  DrrScheduler drr({1.0, 1.0}, 2.0);
  for (std::uint64_t i = 0; i < 8; ++i) drr.enqueue(0, i, 1.0, 0);
  std::uint64_t expect = 0;
  while (auto d = drr.dequeue(0)) EXPECT_EQ(d->handle, expect++);
}

TEST(Drr, LargeCostsStillProgress) {
  // Items cost 10 with quantum 1: the fallback keeps it work-conserving.
  DrrScheduler drr({1.0, 1.0}, 1.0);
  drr.enqueue(0, 7, 10.0, 0);
  auto d = drr.dequeue(0);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->handle, 7u);
}

TEST(Drr, IdleFlowLosesDeficit) {
  DrrScheduler drr({1.0, 1.0}, 1.0);
  // Flow 0 drains fully, then both flows get fresh backlog: flow 0 must not
  // have banked credit from its idle period.
  for (std::uint64_t i = 0; i < 3; ++i) drr.enqueue(0, i, 1.0, 0);
  while (auto d = drr.dequeue(0)) (void)d;
  for (std::uint64_t i = 0; i < 20; ++i) {
    drr.enqueue(0, 100 + i, 1.0, 0);
    drr.enqueue(1, 200 + i, 1.0, 0);
  }
  int flow0 = 0;
  for (int i = 0; i < 20; ++i) {
    auto d = drr.dequeue(0);
    ASSERT_TRUE(d);
    if (d->flow == 0) ++flow0;
  }
  EXPECT_NEAR(flow0, 10, 2);
}

}  // namespace
}  // namespace qos
