// online::Shaper differential and API tests.
//
// The load-bearing claim of the online layer is that it adds no admission
// logic of its own: a Shaper driven by a VirtualClock from a trace must
// reproduce shape_and_run byte for byte — decisions, completion records,
// event stream — for every recombination policy.  The rest of the suite
// covers the online-only surface: bounded-Q2 shedding, degraded admission,
// the monotone-instant contract, and Shapers on separate threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/shaper.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "online/replay.h"
#include "online/shaper.h"
#include "runner/thread_pool.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/clock.h"

namespace qos {
namespace {

using online::Admit;
using online::Decision;
using online::DispatchCommand;
using online::ReplayOutcome;
using online::Shaper;
using online::ShaperOptions;

// Bursty enough that every policy exercises both admits and overflows:
// two-regime MMPP plus a batch overlay (sub-deadline spikes).
Trace burst_trace() {
  WorkloadSpec spec;
  spec.states = {{400, 1.0}, {1500, 0.4}};
  spec.batches = {.batches_per_sec = 0.5, .mean_size = 12, .spread_us = 2'000};
  return generate_workload(spec, 20 * kUsPerSec, 20260809);
}

constexpr Policy kAllPolicies[] = {Policy::kFcfs, Policy::kSplit,
                                   Policy::kFairQueue, Policy::kMiser};

struct Differential {
  ShapingOutcome offline;
  ReplayOutcome online;
  std::vector<Event> offline_events;
  std::vector<Event> online_events;
};

Differential run_differential(Policy policy, const Trace& trace) {
  Differential d;

  RecordingSink offline_sink;
  ShapingConfig config;
  config.policy = policy;
  config.sink = &offline_sink;
  d.offline = shape_and_run(trace, config);
  d.offline_events = offline_sink.events();

  RecordingSink online_sink;
  ShaperOptions options;
  options.shaping.policy = policy;
  options.shaping.sink = &online_sink;
  options.cmin_iops = d.offline.cmin_iops;
  d.online = online::replay_trace(trace, options);
  d.online_events = online_sink.events();
  return d;
}

TEST(OnlineShaperDifferential, DecisionsAndCompletionsMatchShapeAndRun) {
  const Trace trace = burst_trace();
  for (Policy policy : kAllPolicies) {
    SCOPED_TRACE(policy_name(policy));
    const Differential d = run_differential(policy, trace);

    // Completion records — same bytes, same order.
    ASSERT_EQ(d.online.sim.completions.size(),
              d.offline.sim.completions.size());
    EXPECT_EQ(d.online.sim.completions, d.offline.sim.completions);

    // The full event stream: arrivals, admissions, dispatches,
    // completions, in the same order with the same payloads.
    ASSERT_EQ(d.online_events.size(), d.offline_events.size());
    for (std::size_t i = 0; i < d.online_events.size(); ++i) {
      ASSERT_EQ(d.online_events[i], d.offline_events[i]) << "event " << i;
    }

    // One decision per request, in arrival order, consistent with the
    // stream the offline run emitted.
    ASSERT_EQ(d.online.decisions.size(), trace.size());
    std::size_t q1 = 0, q2 = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Decision& dec = d.online.decisions[i];
      EXPECT_EQ(dec.seq, trace[i].seq);
      EXPECT_NE(dec.admit, Admit::kShed);  // unbounded Q2 never sheds
      if (dec.admit == Admit::kQ1) {
        ++q1;
        EXPECT_EQ(dec.deadline,
                  trace[i].arrival + ShapingConfig{}.delta);
      } else {
        ++q2;
        EXPECT_EQ(dec.deadline, kTimeMax);
      }
    }
    std::uint64_t offline_admits = 0, offline_overflows = 0;
    for (const Event& e : d.offline_events) {
      offline_admits += e.kind == EventKind::kAdmit ? 1 : 0;
      offline_overflows += (e.kind == EventKind::kReject ||
                            e.kind == EventKind::kDemote)
                               ? 1
                               : 0;
    }
    EXPECT_EQ(q1, offline_admits);
    EXPECT_EQ(q2, offline_overflows);
  }
}

TEST(OnlineShaperDifferential, MetricsRegistrySeesTheSameCounts) {
  const Trace trace = burst_trace();
  MetricRegistry offline_registry, online_registry;

  ShapingConfig config;
  config.policy = Policy::kMiser;
  config.registry = &offline_registry;
  const ShapingOutcome outcome = shape_and_run(trace, config);

  ShaperOptions options;
  options.shaping.policy = Policy::kMiser;
  options.shaping.registry = &online_registry;
  options.cmin_iops = outcome.cmin_iops;
  (void)online::replay_trace(trace, options);

  ASSERT_EQ(online_registry.counters().size(),
            offline_registry.counters().size());
  for (const auto& [name, counter] : offline_registry.counters()) {
    const Counter* mirrored = online_registry.find_counter(name);
    ASSERT_NE(mirrored, nullptr) << name;
    EXPECT_EQ(mirrored->value(), counter.value()) << name;
  }
}

TEST(OnlineShaper, BoundedQ2ShedsInsteadOfQueueing) {
  // cmin 100 IOPS at delta 10 ms => maxQ1 = 1: the first arrival takes Q1,
  // the next two fill the bounded Q2, the rest shed.
  ShaperOptions options;
  options.shaping.policy = Policy::kMiser;
  options.cmin_iops = 100;
  options.max_q2_depth = 2;

  VirtualClock clock;
  Shaper shaper(options, clock);

  std::vector<Decision> decisions;
  for (std::uint64_t i = 0; i < 50; ++i)
    decisions.push_back(shaper.admit(Request{.arrival = 0, .seq = i}, 0));

  EXPECT_EQ(decisions[0].admit, Admit::kQ1);
  EXPECT_EQ(decisions[1].admit, Admit::kQ2);
  EXPECT_EQ(decisions[2].admit, Admit::kQ2);
  for (std::size_t i = 3; i < decisions.size(); ++i) {
    EXPECT_EQ(decisions[i].admit, Admit::kShed) << "decision " << i;
    EXPECT_EQ(decisions[i].deadline, kTimeMax);
    EXPECT_EQ(decisions[i].depth, -1);
  }
  EXPECT_EQ(shaper.admitted_q1(), 1u);
  EXPECT_EQ(shaper.admitted_q2(), 2u);
  EXPECT_EQ(shaper.shed(), 47u);
  EXPECT_LE(shaper.q2_backlog(), options.max_q2_depth);

  // Draining the backlog re-opens admission: complete the dispatched work
  // and the next overflow arrival queues instead of shedding.
  const std::vector<DispatchCommand> cmds = shaper.poll_dispatch(0);
  ASSERT_FALSE(cmds.empty());
  Time now = 0;
  for (const DispatchCommand& cmd : cmds) {
    now += 1'000;
    shaper.on_completion(cmd.request, cmd.klass, cmd.server, now);
  }
  (void)shaper.poll_dispatch(now);  // dispatch the remaining Q2 backlog
  while (shaper.busy_servers() > 0) {
    now += 1'000;
    // Single server: complete whatever is running.
    for (const DispatchCommand& cmd : shaper.poll_dispatch(now)) {
      shaper.on_completion(cmd.request, cmd.klass, cmd.server, now);
    }
    break;
  }
  EXPECT_LT(shaper.q2_backlog(), options.max_q2_depth);
  const Decision after =
      shaper.admit(Request{.arrival = now, .seq = 1'000}, now);
  EXPECT_NE(after.admit, Admit::kShed);
}

TEST(OnlineShaper, ShedRequestsNeverReachTheSchedulerStream) {
  RecordingSink sink;
  ShaperOptions options;
  options.shaping.policy = Policy::kMiser;
  options.shaping.sink = &sink;
  options.cmin_iops = 100;
  options.max_q2_depth = 1;

  VirtualClock clock;
  Shaper shaper(options, clock);
  for (std::uint64_t i = 0; i < 10; ++i)
    (void)shaper.admit(Request{.arrival = 0, .seq = i}, 0);

  // Only non-shed requests produce kArrival (and decision) events.
  const std::uint64_t entered = shaper.admitted_q1() + shaper.admitted_q2();
  EXPECT_EQ(sink.count(EventKind::kArrival), entered);
  EXPECT_EQ(sink.count(EventKind::kAdmit) + sink.count(EventKind::kReject),
            entered);
  EXPECT_EQ(shaper.shed(), 10 - entered);
}

TEST(OnlineShaper, DegradedAdmissionReplaySmoke) {
  ShaperOptions options;
  options.cmin_iops = 200;
  options.use_degraded_admission = true;

  const Trace trace = burst_trace();
  const ReplayOutcome out = online::replay_trace(trace, options);
  ASSERT_EQ(out.decisions.size(), trace.size());
  ASSERT_EQ(out.sim.completions.size(), trace.size());
  std::uint64_t q1 = 0, q2 = 0, demoted = 0;
  for (const Decision& d : out.decisions) {
    EXPECT_NE(d.admit, Admit::kShed);
    q1 += d.admit == Admit::kQ1 ? 1 : 0;
    q2 += d.admit == Admit::kQ2 ? 1 : 0;
    demoted += d.demoted ? 1 : 0;
  }
  EXPECT_EQ(q1 + q2, trace.size());
  EXPECT_LE(demoted, q2);
  EXPECT_GT(q1, 0u);
}

TEST(OnlineShaper, CustomSchedulerReplaysOnItsOwnServers) {
  // make_custom_scheduler overrides shaping.policy, so the replay must
  // provision the custom scheduler's one server, not Split's two — and then
  // run exactly as shape_and_run runs that scheduler's policy.
  const Trace trace = burst_trace();
  ShapingConfig miser;
  miser.policy = Policy::kMiser;
  miser.capacity_override_iops = 600;
  const ShapingOutcome offline = shape_and_run(trace, miser);

  ShaperOptions options;
  options.shaping.policy = Policy::kSplit;
  options.cmin_iops = 600;
  options.make_custom_scheduler = [miser] {
    return make_scheduler(miser, miser.capacity_override_iops);
  };
  const ReplayOutcome out = online::replay_trace(trace, options);
  ASSERT_EQ(out.sim.completions.size(), trace.size());
  EXPECT_EQ(out.sim.completions, offline.sim.completions);
}

TEST(OnlineShaper, ConvenienceOverloadsStampFromTheClock) {
  ShaperOptions options;
  options.cmin_iops = 500;

  VirtualClock clock;
  Shaper shaper(options, clock);
  clock.advance_to(5'000);
  const Decision d = shaper.admit(Request{.seq = 0});
  ASSERT_EQ(d.admit, Admit::kQ1);
  EXPECT_EQ(d.deadline, 5'000 + ShapingConfig{}.delta);

  const std::vector<DispatchCommand> cmds = shaper.poll_dispatch();
  ASSERT_EQ(cmds.size(), 1u);
  // The request the scheduler saw was stamped with the clock's instant,
  // not the (unset) arrival field.
  EXPECT_EQ(cmds[0].request.arrival, 5'000);
}

TEST(OnlineShaper, InstantsThatGoBackwardsAreRejected) {
  // After an admit and a dispatch at 10,000, a completion, an admission and
  // a poll each hand the Shaper an earlier instant.
  ShaperOptions options;
  options.cmin_iops = 500;

  VirtualClock clock;
  Shaper shaper(options, clock);
  const Request r{.seq = 0};
  ASSERT_EQ(shaper.admit(r, 10'000).admit, Admit::kQ1);
  const std::vector<DispatchCommand> cmds = shaper.poll_dispatch(10'000);
  ASSERT_EQ(cmds.size(), 1u);
  const DispatchCommand& cmd = cmds[0];

  EXPECT_DEATH(shaper.on_completion(cmd.request, cmd.klass, cmd.server, 5'000),
               "Precondition");
  EXPECT_DEATH((void)shaper.admit(Request{.seq = 1}, 1'000), "Precondition");
  EXPECT_DEATH((void)shaper.poll_dispatch(9'999), "Precondition");
}

TEST(OnlineShaper, ShapersOnSeparateThreadsMatchTheSerialReplay) {
  // One Shaper per caller thread: replays running side by side share no
  // state, so each equals the serial replay decision for decision.
  const Trace trace = preset_trace(Workload::kWebSearch, 20 * kUsPerSec);
  ShaperOptions options;
  options.shaping.policy = Policy::kMiser;
  options.cmin_iops = 300;  // below the trace's Cmin: both classes fill
  const ReplayOutcome serial = online::replay_trace(trace, options);
  const auto q2 = std::count_if(
      serial.decisions.begin(), serial.decisions.end(),
      [](const Decision& d) { return d.admit == Admit::kQ2; });
  ASSERT_GT(q2, 0);
  ASSERT_LT(static_cast<std::size_t>(q2), trace.size());

  ThreadPool pool(4);
  const std::vector<ReplayOutcome> parallel = pool.parallel_map(
      4, [&](std::size_t) { return online::replay_trace(trace, options); });
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(parallel[i].decisions, serial.decisions);
    EXPECT_EQ(parallel[i].sim.completions, serial.sim.completions);
  }
}

}  // namespace
}  // namespace qos
