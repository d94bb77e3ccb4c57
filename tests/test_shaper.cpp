#include "core/shaper.h"

#include <gtest/gtest.h>

#include <memory>

#include "analysis/response_stats.h"
#include "sim/server.h"
#include "trace/generator.h"

namespace qos {
namespace {

Trace bursty_trace(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.states = {{150, 2.0}, {900, 0.4}};
  spec.batches = {.batches_per_sec = 0.1,
                  .mean_size = 10,
                  .spread_us = 2'000,
                  .giant_prob = 0,
                  .giant_factor = 1};
  return generate_workload(spec, 60 * kUsPerSec, seed);
}

TEST(PolicyName, AllNamed) {
  EXPECT_STREQ(policy_name(Policy::kFcfs), "FCFS");
  EXPECT_STREQ(policy_name(Policy::kSplit), "Split");
  EXPECT_STREQ(policy_name(Policy::kFairQueue), "FairQueue");
  EXPECT_STREQ(policy_name(Policy::kMiser), "Miser");
}

class ShaperPolicyTest : public ::testing::TestWithParam<Policy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, ShaperPolicyTest,
                         ::testing::Values(Policy::kFcfs, Policy::kSplit,
                                           Policy::kFairQueue, Policy::kMiser),
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

TEST_P(ShaperPolicyTest, CompletesEveryRequest) {
  Trace t = bursty_trace(111);
  ShapingConfig config;
  config.policy = GetParam();
  config.fraction = 0.9;
  config.delta = from_ms(20);
  ShapingOutcome out = shape_and_run(t, config);
  EXPECT_EQ(out.sim.completions.size(), t.size());
  EXPECT_GT(out.cmin_iops, 0);
  EXPECT_DOUBLE_EQ(out.headroom_iops, 50.0);  // 1 / 20 ms
}

TEST_P(ShaperPolicyTest, CapacityOverrideRespected) {
  Trace t = bursty_trace(113);
  ShapingConfig config;
  config.policy = GetParam();
  config.capacity_override_iops = 700;
  config.headroom_override_iops = 30;
  ShapingOutcome out = shape_and_run(t, config);
  EXPECT_DOUBLE_EQ(out.cmin_iops, 700);
  EXPECT_DOUBLE_EQ(out.headroom_iops, 30);
  EXPECT_DOUBLE_EQ(out.total_iops(), 730);
}

TEST(Shaper, DecomposedPoliciesBeatFcfsAtDeadline) {
  // The paper's headline comparison at equal total capacity.
  Trace t = bursty_trace(127);
  ShapingConfig config;
  config.fraction = 0.9;
  config.delta = from_ms(10);

  config.policy = Policy::kFcfs;
  ResponseStats fcfs(shape_and_run(t, config).sim.completions);

  for (Policy p : {Policy::kSplit, Policy::kFairQueue, Policy::kMiser}) {
    config.policy = p;
    ResponseStats shaped(shape_and_run(t, config).sim.completions);
    EXPECT_GT(shaped.fraction_within(config.delta),
              fcfs.fraction_within(config.delta))
        << policy_name(p);
  }
}

TEST(Shaper, ShapedMeetsTargetFraction) {
  Trace t = bursty_trace(131);
  ShapingConfig config;
  config.fraction = 0.9;
  config.delta = from_ms(10);
  for (Policy p : {Policy::kSplit, Policy::kFairQueue, Policy::kMiser}) {
    config.policy = p;
    ShapingOutcome out = shape_and_run(t, config);
    ResponseStats all(out.sim.completions);
    // Primary admissions guarantee ~f of all requests; Miser may shave a
    // hair off (paper Section 3.2) — allow 1% slop.
    EXPECT_GT(all.fraction_within(config.delta), config.fraction - 0.01)
        << policy_name(p);
  }
}

TEST(Shaper, MakeSchedulerProducesDistinctTypes) {
  ShapingConfig config;
  config.delta = from_ms(10);
  config.headroom_override_iops = 20;
  config.policy = Policy::kFcfs;
  auto fcfs = make_scheduler(config, 100);
  config.policy = Policy::kSplit;
  auto split = make_scheduler(config, 100);
  EXPECT_EQ(fcfs->server_count(), 1);
  EXPECT_EQ(split->server_count(), 2);
}

TEST(Shaper, MakeSchedulerWithExplicitHeadroom) {
  // The config form covers what the retired positional signature did:
  // policy, capacity, deadline and an explicit headroom override.
  ShapingConfig config;
  config.policy = Policy::kSplit;
  config.delta = from_ms(10);
  config.headroom_override_iops = 20;
  auto split = make_scheduler(config, 100);
  EXPECT_EQ(split->server_count(), 2);
  EXPECT_DOUBLE_EQ(config.resolved_headroom_iops(), 20.0);
}

TEST(Shaper, MakeServersProvisionsBySchedulerServerCount) {
  ShapingConfig config;
  config.delta = from_ms(10);  // dC = 1/delta = 100 IOPS
  const auto rate = [](const std::unique_ptr<Server>& s) {
    return dynamic_cast<const ConstantRateServer&>(*s).capacity_iops();
  };
  const auto shared = make_servers(config, 500, 1);
  ASSERT_EQ(shared.size(), 1u);
  EXPECT_DOUBLE_EQ(rate(shared[0]), 600.0);
  const auto split = make_servers(config, 500, 2);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_DOUBLE_EQ(rate(split[0]), 500.0);
  EXPECT_DOUBLE_EQ(rate(split[1]), 100.0);

  // Without headroom Split's overflow server still needs a positive rate.
  config.headroom_override_iops = 0;
  const auto no_headroom = make_servers(config, 500, 2);
  ASSERT_EQ(no_headroom.size(), 2u);
  EXPECT_DOUBLE_EQ(rate(no_headroom[1]), 1.0);
  EXPECT_GT(no_headroom[1]->service_duration(Request{}, 0), 0);
}

TEST(Shaper, ObservedRunBuildsReportAndReconciles) {
  Trace t = bursty_trace(137);
  MetricRegistry registry;
  RecordingSink sink;
  ShapingConfig config;
  config.fraction = 0.9;
  config.delta = from_ms(10);
  config.policy = Policy::kMiser;
  config.registry = &registry;
  config.sink = &sink;
  ShapingOutcome out = shape_and_run(t, config);

  // Report totals match the simulation.
  EXPECT_EQ(out.report.all.count, out.sim.completions.size());
  EXPECT_EQ(out.report.admitted + out.report.rejected,
            out.sim.completions.size());
  EXPECT_EQ(out.report.primary.count + out.report.overflow.count,
            out.report.all.count);
  EXPECT_TRUE(out.report.q1_occupancy.tracked);

  // Sink events reconcile with the registry and the completions.
  EXPECT_EQ(sink.count(EventKind::kAdmit),
            registry.counter("rtt.admitted").value());
  EXPECT_EQ(sink.count(EventKind::kReject),
            registry.counter("rtt.rejected").value());
  EXPECT_EQ(sink.count(EventKind::kArrival), t.size());
  EXPECT_EQ(sink.count(EventKind::kCompletion), out.sim.completions.size());
  EXPECT_EQ(sink.count(EventKind::kDispatch), out.sim.completions.size());
}

TEST(Shaper, UnobservedRunSkipsReport) {
  Trace t = bursty_trace(139);
  ShapingConfig config;
  config.fraction = 0.9;
  config.delta = from_ms(10);
  ShapingOutcome out = shape_and_run(t, config);
  EXPECT_EQ(out.report.all.count, 0u);  // not built without registry/sink
  // But one can always be derived after the fact.
  ShapingReport report = build_shaping_report(out.sim, config.delta);
  EXPECT_EQ(report.all.count, out.sim.completions.size());
}

}  // namespace
}  // namespace qos
