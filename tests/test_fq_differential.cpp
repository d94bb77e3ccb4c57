// Equivalence proofs for the heap-based FQ backends.
//
// Two obligations from the hot-path overhaul:
//   1. Tie-break determinism: equal head tags must dispatch the lowest flow
//      index first — the order the pre-heap linear scans induced — for all
//      four backends.
//   2. Differential equivalence: randomized seeded workloads replayed
//      through the production backend and its frozen scan reference
//      (fq/scan_reference.h) must yield identical dispatch streams,
//      backlogs and virtual times at every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fq/pclock.h"
#include "fq/scan_reference.h"
#include "fq/sfq.h"
#include "fq/wf2q.h"
#include "fq/wfq.h"
#include "util/rng.h"

namespace qos {
namespace {

// Drain `s` completely, returning the dispatch sequence.
std::vector<FqDispatch> drain(FairScheduler& s, Time now = 0) {
  std::vector<FqDispatch> out;
  while (auto d = s.dequeue(now)) out.push_back(*d);
  return out;
}

void expect_same_stream(const std::vector<FqDispatch>& a,
                        const std::vector<FqDispatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flow, b[i].flow) << "at dispatch " << i;
    EXPECT_EQ(a[i].handle, b[i].handle) << "at dispatch " << i;
  }
}

// ---------------------------------------------------------------------------
// Tie-break determinism: one item per flow, identical weights and costs, so
// every head tag is equal; dispatch order must be ascending flow index.

template <typename Sched>
void equal_tag_tie_break(Sched&& s) {
  // Enqueue in scrambled flow order to rule out insertion-order artifacts.
  for (int flow : {2, 0, 3, 1}) s.enqueue(flow, 100 + flow, 1.0, 0);
  const auto seq = drain(s);
  ASSERT_EQ(seq.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(seq[static_cast<std::size_t>(i)].flow, i);
    EXPECT_EQ(seq[static_cast<std::size_t>(i)].handle,
              static_cast<std::uint64_t>(100 + i));
  }
}

TEST(FqTieBreak, SfqEqualTagsDispatchLowestFlowFirst) {
  equal_tag_tie_break(SfqScheduler({1, 1, 1, 1}));
}

TEST(FqTieBreak, WfqEqualTagsDispatchLowestFlowFirst) {
  equal_tag_tie_break(WfqScheduler({1, 1, 1, 1}));
}

TEST(FqTieBreak, Wf2qEqualTagsDispatchLowestFlowFirst) {
  equal_tag_tie_break(Wf2qPlusScheduler({1, 1, 1, 1}));
}

TEST(FqTieBreak, PClockEqualDeadlinesDispatchLowestFlowFirst) {
  // Identical SLAs + simultaneous conforming arrivals => equal deadlines.
  equal_tag_tie_break(
      PClockScheduler(std::vector<PClockSla>(4, PClockSla{})));
}

TEST(FqTieBreak, RepeatedRunsLockTheSameSequence) {
  // The full interleaved dispatch sequence is a pure function of the input:
  // two fresh instances fed the same workload agree dispatch for dispatch.
  for (int round = 0; round < 2; ++round) {
    SfqScheduler a({1, 1, 1}), b({1, 1, 1});
    std::vector<FqDispatch> sa, sb;
    std::uint64_t h = 0;
    for (int i = 0; i < 30; ++i) {
      const int flow = i % 3;
      a.enqueue(flow, h, 1.0, 0);
      b.enqueue(flow, h, 1.0, 0);
      ++h;
      if (i % 2 == 1) {
        sa.push_back(*a.dequeue(0));
        sb.push_back(*b.dequeue(0));
      }
    }
    auto ta = drain(a), tb = drain(b);
    sa.insert(sa.end(), ta.begin(), ta.end());
    sb.insert(sb.end(), tb.begin(), tb.end());
    expect_same_stream(sa, sb);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: production heap backend vs frozen scan reference.

// Drives both schedulers through one seeded op stream of interleaved
// enqueues/dequeues and asserts identical observable state throughout.
// `tie_heavy` uses unit costs so head tags collide constantly, stressing the
// tie-break; otherwise costs vary to exercise tag arithmetic.
template <typename Prod, typename Ref>
void differential(Prod& prod, Ref& ref, std::uint64_t seed, bool tie_heavy,
                  bool timed) {
  ASSERT_EQ(prod.flow_count(), ref.flow_count());
  const int flows = prod.flow_count();
  Rng rng(seed);
  std::uint64_t handle = 0;
  Time now = 0;
  for (int op = 0; op < 4000; ++op) {
    if (timed) now += rng.uniform_int(0, 2000);
    if (rng.next_double() < 0.6) {
      const int flow = static_cast<int>(rng.uniform_int(0, flows - 1));
      const double cost =
          tie_heavy ? 1.0 : static_cast<double>(rng.uniform_int(1, 8));
      prod.enqueue(flow, handle, cost, now);
      ref.enqueue(flow, handle, cost, now);
      ++handle;
    } else {
      const auto dp = prod.dequeue(now);
      const auto dr = ref.dequeue(now);
      ASSERT_EQ(dp.has_value(), dr.has_value()) << "at op " << op;
      if (dp) {
        ASSERT_EQ(dp->flow, dr->flow) << "at op " << op;
        ASSERT_EQ(dp->handle, dr->handle) << "at op " << op;
      }
    }
    ASSERT_EQ(prod.empty(), ref.empty());
    for (int f = 0; f < flows; ++f)
      ASSERT_EQ(prod.backlog(f), ref.backlog(f)) << "flow " << f;
  }
  expect_same_stream(drain(prod, now), drain(ref, now));
  EXPECT_TRUE(prod.empty());
}

std::vector<double> random_weights(int flows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(static_cast<std::size_t>(flows));
  for (auto& x : w) x = static_cast<double>(rng.uniform_int(1, 4));
  return w;
}

TEST(FqDifferential, SfqMatchesScanReference) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (int flows : {2, 5, 16}) {
      for (bool tie_heavy : {true, false}) {
        const auto w = tie_heavy ? std::vector<double>(flows, 1.0)
                                 : random_weights(flows, seed * 17);
        SfqScheduler prod(w);
        scanref::ScanSfqScheduler ref(w);
        differential(prod, ref, seed, tie_heavy, /*timed=*/false);
        // SCFQ-style virtual time is part of the observable contract.
        EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
      }
    }
  }
}

TEST(FqDifferential, WfqMatchesScanReference) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    for (int flows : {2, 5, 16}) {
      for (bool tie_heavy : {true, false}) {
        const auto w = tie_heavy ? std::vector<double>(flows, 1.0)
                                 : random_weights(flows, seed * 31);
        WfqScheduler prod(w);
        scanref::ScanWfqScheduler ref(w);
        differential(prod, ref, seed, tie_heavy, /*timed=*/false);
        EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
      }
    }
  }
}

TEST(FqDifferential, Wf2qMatchesScanReference) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    for (int flows : {2, 5, 16}) {
      for (bool tie_heavy : {true, false}) {
        const auto w = tie_heavy ? std::vector<double>(flows, 1.0)
                                 : random_weights(flows, seed * 13);
        Wf2qPlusScheduler prod(w);
        scanref::ScanWf2qPlusScheduler ref(w);
        differential(prod, ref, seed, tie_heavy, /*timed=*/false);
        // Bit-equality: the heap rewrite performs the same float ops in the
        // same order, including the eligible-empty V jump.
        EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse activation at 4k flows.  Cohorts of flows scattered across the id
// space activate, drain fully idle, and later cohorts reactivate with fresh
// tags — the pattern that exercises idle-flow tag persistence (last_finish /
// token debt must survive an empty queue) and heap re-entry, none of which
// the small differentials above reach.  Unit costs in half the phases force
// equal-tag tie-break storms across cohort boundaries.

constexpr int kSparseFlows = 4096;

// One phase: activate `cohort`, interleave enqueues/dequeues randomly, then
// drain both schedulers empty and compare the full dispatch streams.
template <typename Prod, typename Ref>
void sparse_phase(Prod& prod, Ref& ref, const std::vector<int>& cohort,
                  Rng& rng, std::uint64_t& handle, Time& now, bool tie_heavy,
                  bool timed) {
  for (int flow : cohort) {
    const int burst = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < burst; ++i) {
      const double cost =
          tie_heavy ? 1.0 : static_cast<double>(rng.uniform_int(1, 8));
      prod.enqueue(flow, handle, cost, now);
      ref.enqueue(flow, handle, cost, now);
      ++handle;
    }
  }
  for (int op = 0; op < 200; ++op) {
    if (timed) now += rng.uniform_int(0, 2000);
    if (rng.next_double() < 0.4) {
      const int flow = cohort[static_cast<std::size_t>(
          rng.uniform_int(0, cohort.size() - 1))];
      const double cost =
          tie_heavy ? 1.0 : static_cast<double>(rng.uniform_int(1, 8));
      prod.enqueue(flow, handle, cost, now);
      ref.enqueue(flow, handle, cost, now);
      ++handle;
    } else {
      const auto dp = prod.dequeue(now);
      const auto dr = ref.dequeue(now);
      ASSERT_EQ(dp.has_value(), dr.has_value());
      if (dp) {
        ASSERT_EQ(dp->flow, dr->flow);
        ASSERT_EQ(dp->handle, dr->handle);
      }
    }
  }
  for (int flow : cohort) ASSERT_EQ(prod.backlog(flow), ref.backlog(flow));
  expect_same_stream(drain(prod, now), drain(ref, now));
  ASSERT_TRUE(prod.empty());
  ASSERT_TRUE(ref.empty());
}

// Phase `p`'s cohort: 48 flows marching through the id space on an odd
// multiplicative stride (injective over any 48 consecutive indices), so
// consecutive phases share almost no flows and activate in an order
// unrelated to flow id.
std::vector<int> sparse_cohort(int phase, int flows) {
  std::vector<int> cohort;
  for (int i = 0; i < 48; ++i)
    cohort.push_back(static_cast<int>(
        (static_cast<std::uint32_t>(phase * 48 + i) * 2'654'435'761u) %
        static_cast<std::uint32_t>(flows)));
  return cohort;
}

template <typename Prod, typename Ref>
void sparse_differential(Prod& prod, Ref& ref, std::uint64_t seed,
                         bool timed) {
  ASSERT_EQ(prod.flow_count(), ref.flow_count());
  Rng rng(seed);
  std::uint64_t handle = 0;
  Time now = 0;
  for (int phase = 0; phase < 6; ++phase)
    sparse_phase(prod, ref, sparse_cohort(phase, prod.flow_count()), rng,
                 handle, now, /*tie_heavy=*/phase % 2 == 0, timed);
}

TEST(FqSparseActivation, SfqMatchesScanReference) {
  const std::vector<double> weights(kSparseFlows, 1.0);
  SfqScheduler prod(weights);
  scanref::ScanSfqScheduler ref(weights);
  sparse_differential(prod, ref, 101, /*timed=*/false);
  EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
}

TEST(FqSparseActivation, WfqMatchesScanReference) {
  const std::vector<double> weights(kSparseFlows, 1.0);
  WfqScheduler prod(weights);
  scanref::ScanWfqScheduler ref(weights);
  sparse_differential(prod, ref, 102, /*timed=*/false);
  EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
}

TEST(FqSparseActivation, Wf2qMatchesScanReference) {
  const std::vector<double> weights(kSparseFlows, 1.0);
  Wf2qPlusScheduler prod(weights);
  scanref::ScanWf2qPlusScheduler ref(weights);
  sparse_differential(prod, ref, 103, /*timed=*/false);
  EXPECT_EQ(prod.virtual_time(), ref.virtual_time());
}

TEST(FqSparseActivation, PClockMatchesScanReference) {
  const std::vector<PClockSla> slas(kSparseFlows, PClockSla{});
  PClockScheduler prod(slas);
  scanref::ScanPClockScheduler ref(slas);
  sparse_differential(prod, ref, 104, /*timed=*/true);
}

TEST(FqDifferential, PClockMatchesScanReference) {
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    for (int flows : {2, 5, 16}) {
      std::vector<PClockSla> slas;
      Rng wrng(seed * 41);
      for (int f = 0; f < flows; ++f) {
        PClockSla sla;
        sla.sigma = static_cast<double>(wrng.uniform_int(1, 4));
        sla.rho = static_cast<double>(wrng.uniform_int(50, 200));
        sla.delta = wrng.uniform_int(1'000, 20'000);
        slas.push_back(sla);
      }
      PClockScheduler prod(slas);
      scanref::ScanPClockScheduler ref(slas);
      // pClock tagging depends on arrival instants: run the timed variant.
      differential(prod, ref, seed, /*tie_heavy=*/false, /*timed=*/true);
    }
  }
}

}  // namespace
}  // namespace qos
