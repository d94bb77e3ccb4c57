// Control plane: QosController guardrails, ControlledTenantScheduler
// mechanics, and the closed-loop harness (controller vs static under chaos,
// determinism across thread counts and cache states, online differential).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "control/control_loop.h"
#include "control/controlled_scheduler.h"
#include "control/controller.h"
#include "control/harness.h"
#include "core/capacity.h"
#include "core/multi_tenant.h"
#include "obs/sink.h"
#include "online/replay.h"
#include "online/shaper.h"
#include "runner/parallel_capacity.h"
#include "runner/result_cache.h"
#include "runner/thread_pool.h"
#include "trace/generator.h"
#include "util/clock.h"
#include "util/time.h"

namespace qos {
namespace {

// Feed `count` synthetic arrivals for `tenant` at a steady `rate` ending at
// `end` into the controller's demand window.
void feed_arrivals(QosController& ctrl, std::uint32_t tenant, double rate,
                   Time end, int count) {
  const Time gap = from_sec(1.0 / rate);
  Time t = end - gap * count;
  for (int i = 0; i < count; ++i) {
    t += gap;
    ctrl.on_event({.time = t, .client = tenant, .kind = EventKind::kArrival});
  }
}

ControllerConfig small_config() {
  ControllerConfig cfg;
  cfg.fraction = 0.95;
  cfg.delta = from_ms(10);
  cfg.epoch = kUsPerSec;
  cfg.demand_window = 2 * kUsPerSec;
  cfg.min_window_arrivals = 16;
  cfg.min_share_iops = 10;
  cfg.max_share_fraction = 0.8;
  cfg.step_fraction = 0.5;
  cfg.hysteresis = 0.05;
  return cfg;
}

TEST(Controller, UnstableWindowKeepsLastGoodPlan) {
  QosController ctrl(small_config(), {200, 200}, 500);
  // No arrivals at all: every window is unstable, demands stay at the
  // initial shares, hysteresis suppresses the no-op epoch.
  const std::vector<double> alloc = ctrl.run_epoch(kUsPerSec);
  EXPECT_EQ(alloc, (std::vector<double>{200, 200}));
  EXPECT_EQ(ctrl.stats().epochs, 1u);
  EXPECT_EQ(ctrl.stats().skipped, 1u);
  EXPECT_EQ(ctrl.stats().resolves, 0u);
  EXPECT_EQ(ctrl.stats().unstable_windows, 2u);
}

TEST(Controller, ReprovisionsTowardShiftedDemand) {
  ControllerConfig cfg = small_config();
  QosController ctrl(cfg, {200, 200}, 1000);
  // Tenant 0 now runs hot (~600 IOPS), tenant 1 went idle.
  feed_arrivals(ctrl, 0, 600, kUsPerSec, 600);
  const std::vector<double>& alloc = ctrl.run_epoch(kUsPerSec);
  EXPECT_GT(alloc[0], 250);  // moved up toward demand…
  EXPECT_LE(alloc[0], 200 * (1 + cfg.step_fraction));  // …but step-bounded
  EXPECT_EQ(alloc[1], 200);  // idle window unstable: demand kept, no move
  EXPECT_EQ(ctrl.stats().applied, 1u);
  EXPECT_EQ(ctrl.stats().resolves, 1u);
}

TEST(Controller, GuardrailsClampDesiredShares) {
  ControllerConfig cfg = small_config();
  cfg.max_share_fraction = 0.3;
  cfg.step_fraction = 100;  // effectively unbounded step: isolate the cap
  QosController ctrl(cfg, {200, 200}, 1000);
  feed_arrivals(ctrl, 0, 2000, kUsPerSec, 1200);
  const std::vector<double>& alloc = ctrl.run_epoch(kUsPerSec);
  const double budget = 1000 - overflow_headroom_iops(cfg.delta);
  EXPECT_LE(alloc[0], cfg.max_share_fraction * budget + 1e-9);
  EXPECT_GE(alloc[1], cfg.min_share_iops);
}

TEST(Controller, HealthScalesBudget) {
  ControllerConfig cfg = small_config();
  cfg.step_fraction = 100;
  QosController ctrl(cfg, {400, 400}, 1000);
  feed_arrivals(ctrl, 0, 600, kUsPerSec, 600);
  feed_arrivals(ctrl, 1, 600, kUsPerSec, 600);
  ctrl.set_health(0.5);  // brownout: only half the capacity is real
  const std::vector<double>& alloc = ctrl.run_epoch(kUsPerSec);
  const double budget = (1000 - overflow_headroom_iops(cfg.delta)) * 0.5;
  EXPECT_LE(alloc[0] + alloc[1], budget + 2 * cfg.min_share_iops + 1e-9);
}

TEST(Controller, BreachBoostPrefersBreachedTenant) {
  ControllerConfig cfg = small_config();
  cfg.step_fraction = 100;
  QosController a(cfg, {200, 200}, 2000);
  QosController b(cfg, {200, 200}, 2000);
  for (QosController* c : {&a, &b}) {
    feed_arrivals(*c, 0, 400, kUsPerSec, 400);
    feed_arrivals(*c, 1, 400, kUsPerSec, 400);
  }
  b.on_event(
      {.time = kUsPerSec / 2, .client = 0, .kind = EventKind::kSlaBreach});
  const double plain = a.run_epoch(kUsPerSec)[0];
  const double boosted = b.run_epoch(kUsPerSec)[0];
  EXPECT_GT(boosted, plain);
  EXPECT_TRUE(b.in_breach(0));
  EXPECT_FALSE(b.in_breach(1));
}

TEST(Controller, HysteresisSkipsSmallMoves) {
  ControllerConfig cfg = small_config();
  cfg.hysteresis = 0.5;  // huge deadband
  QosController ctrl(cfg, {200, 200}, 1000);
  feed_arrivals(ctrl, 0, 210, kUsPerSec, 210);  // barely above current
  ctrl.run_epoch(kUsPerSec);
  EXPECT_EQ(ctrl.stats().skipped, 1u);
  EXPECT_EQ(ctrl.allocation()[0], 200);
  // A breach transition overrides the deadband even for small moves.
  feed_arrivals(ctrl, 0, 210, 2 * kUsPerSec, 210);
  ctrl.on_event(
      {.time = kUsPerSec + 1, .client = 0, .kind = EventKind::kSlaBreach});
  ctrl.run_epoch(2 * kUsPerSec);
  EXPECT_EQ(ctrl.stats().applied, 1u);
}

TEST(Controller, DeterministicAcrossPoolsAndCache) {
  auto run = [](ThreadPool* pool, ResultCache* cache) {
    QosController ctrl(small_config(), {200, 300}, 1000, cache, pool);
    for (int e = 1; e <= 3; ++e) {
      feed_arrivals(ctrl, 0, 500 + 100 * e, e * kUsPerSec, 300);
      feed_arrivals(ctrl, 1, 150, e * kUsPerSec, 150);
      ctrl.run_epoch(e * kUsPerSec);
    }
    return ctrl.allocation();
  };
  ThreadPool serial(1);
  ThreadPool wide(8);
  ResultCache cache;
  const std::vector<double> base = run(nullptr, nullptr);
  EXPECT_EQ(run(&serial, nullptr), base);
  EXPECT_EQ(run(&wide, nullptr), base);
  EXPECT_EQ(run(&wide, &cache), base);  // cold cache
  EXPECT_EQ(run(&wide, &cache), base);  // warm cache
  EXPECT_EQ(run(&serial, &cache), base);
  // Bit-identity, not approximate equality.
  const std::vector<double> again = run(&wide, &cache);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again[i]),
              std::bit_cast<std::uint64_t>(base[i]));
  }
}

// ---------------------------------------------------------------------------

TEST(ControlledScheduler, PerTenantBoundsAndSharedQ1) {
  // Tenant bounds: 500 IOPS * 10 ms = 5 slots; 100 IOPS * 10 ms = 1 slot.
  ControlledTenantScheduler sched({500, 100}, from_ms(10), 700);
  Request r;
  for (int i = 0; i < 7; ++i) {
    r.seq = static_cast<std::uint64_t>(i);
    r.client = 0;
    sched.on_arrival(r, i);
  }
  EXPECT_EQ(sched.len_q1(0), 5);  // 5 admitted, 2 overflowed
  r.seq = 100;
  r.client = 1;
  sched.on_arrival(r, 10);
  EXPECT_EQ(sched.len_q1(1), 1);  // own bound, unaffected by tenant 0
  r.seq = 101;
  sched.on_arrival(r, 11);
  EXPECT_EQ(sched.len_q1(1), 1);  // second arrival overflows

  // Q1 drains strictly before Q2, FIFO across tenants.
  auto d = sched.next_for(0, 20);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->klass, ServiceClass::kPrimary);
  EXPECT_EQ(d->request.seq, 0u);
}

TEST(ControlledScheduler, ReprovisionMovesBoundAndFlagsDemotions) {
  ControlledTenantScheduler sched({500, 500}, from_ms(10), 1100);
  RecordingSink events;
  sched.attach_observability(&events, nullptr);
  // Shrink tenant 0 to 100 IOPS (1 slot): arrivals the 500-IOPS plan would
  // have admitted are now demotions, not plain rejects.
  sched.set_tenant_capacity(0, 100);
  EXPECT_EQ(sched.allocation(0), 100);
  Request r;
  for (int i = 0; i < 3; ++i) {
    r.seq = static_cast<std::uint64_t>(i);
    r.client = 0;
    sched.on_arrival(r, i);
  }
  EXPECT_EQ(sched.len_q1(0), 1);
  EXPECT_EQ(sched.demotions(), 2u);
  ASSERT_EQ(events.events().size(), 3u);
  EXPECT_EQ(events.events()[0].kind, EventKind::kAdmit);
  EXPECT_EQ(events.events()[1].kind, EventKind::kDemote);
  EXPECT_EQ(events.events()[1].client, 0u);
  EXPECT_EQ(events.events()[1].b, 5);  // planned bound
  // Growing the share back re-admits immediately.
  sched.set_tenant_capacity(0, 500);
  r.seq = 10;
  sched.on_arrival(r, 10);
  EXPECT_EQ(sched.len_q1(0), 2);
}

TEST(ControlledScheduler, Q2RoundRobinAcrossTenants) {
  ControlledTenantScheduler sched({100, 100, 100}, from_ms(10), 400);
  Request r;
  std::uint64_t seq = 0;
  // Fill each tenant's single Q1 slot, then two Q2 entries each.
  for (std::uint32_t c = 0; c < 3; ++c) {
    for (int i = 0; i < 3; ++i) {
      r.seq = seq++;
      r.client = c;
      sched.on_arrival(r, 0);
    }
  }
  // Drain Q1 (3 requests), then Q2 must alternate tenants 0,1,2,0,1,2.
  std::vector<std::uint32_t> q2_order;
  Time now = 1;
  while (auto d = sched.next_for(0, now)) {
    if (d->klass == ServiceClass::kOverflow)
      q2_order.push_back(d->request.client);
    sched.on_complete(d->request, d->klass, 0, now + 1);
    now += 2;
  }
  EXPECT_EQ(q2_order, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
}

// ---------------------------------------------------------------------------

// Tenant mix for the end-to-end runs: half the tenants shift hot after the
// profiling prefix (the static under-provisioning the controller fixes),
// the other half go quiet (the slack it harvests).
std::vector<Trace> shifting_tenants(std::size_t n, Time duration,
                                    std::uint64_t seed) {
  std::vector<Trace> tenants;
  tenants.reserve(n);
  const Time shift = 6 * kUsPerSec;
  for (std::size_t i = 0; i < n; ++i) {
    RegimeSchedule schedule;
    if (i % 2 == 0) {
      schedule.phase(0, 480).phase(shift, 960);  // cold prefix, hot tail
    } else {
      schedule.phase(0, 960).phase(shift, 480);  // hot prefix, cold tail
    }
    tenants.push_back(
        generate_regime_switching(schedule, duration, seed + 17 * i + 1));
  }
  return tenants;
}

ControlPlaneConfig harness_config(ControlMode mode) {
  ControlPlaneConfig config;
  config.fraction = 0.95;
  config.delta = from_ms(10);
  config.mode = mode;
  config.profile_window = 5 * kUsPerSec;
  config.controller.epoch = kUsPerSec;
  config.controller.demand_window = 2 * kUsPerSec;
  config.controller.step_fraction = 0.5;
  return config;
}

TEST(ControlPlane, ControllerBeatsStaticUnderRegimeShift) {
  const std::vector<Trace> tenants = shifting_tenants(8, 20 * kUsPerSec, 42);
  ControlPlaneConfig cfg_static = harness_config(ControlMode::kStatic);
  ControlPlaneConfig cfg_ctrl = harness_config(ControlMode::kController);
  // At these rates the Cmin plans are tight multiples of the means: total
  // demand just fits total capacity while the static per-tenant split is
  // wrong after the shift.  The brownout then shrinks delivered capacity
  // below what the static bounds admit into Q1 — its FIFO backlog exceeds
  // what drains within delta and the guarantee breaks for everyone.  The
  // controller re-tightens admission to monitored health instead.
  FaultySchedule faults;
  faults.brownout(8 * kUsPerSec, 16 * kUsPerSec, 0.5);
  cfg_static.faults = faults;
  cfg_ctrl.faults = faults;

  const ControlOutcome st = run_control_plane(tenants, cfg_static);
  const ControlOutcome ct = run_control_plane(tenants, cfg_ctrl);
  EXPECT_EQ(st.total_iops, ct.total_iops);  // same physical budget
  // Static admits into Q1 far beyond the browned-out drain rate: the FIFO
  // backlog blows the deadline for (essentially) every tenant's guarantee.
  EXPECT_GE(st.tail_violation_fraction, 0.5);
  // The controller re-tightens to delivered capacity and holds it.
  EXPECT_LE(ct.tail_violation_fraction, 0.25);
  EXPECT_LT(ct.q1_miss_fraction, st.q1_miss_fraction / 2);
  EXPECT_GT(ct.demotions, st.demotions);  // the excess is shed, not admitted
  EXPECT_GT(ct.epochs, 0u);
  EXPECT_GT(ct.applied, 0u);
  EXPECT_GT(ct.reprovisions, 0u);
  // The controller moved capacity toward the tenants that went hot.
  double hot_gain = 0;
  for (std::size_t i = 0; i < tenants.size(); i += 2)
    hot_gain += ct.tenants[i].final_iops - ct.tenants[i].planned_iops;
  EXPECT_GT(hot_gain, 0.0);
}

TEST(ControlPlane, BitIdenticalAcrossPoolsAndCacheStates) {
  const std::vector<Trace> tenants = shifting_tenants(4, 12 * kUsPerSec, 7);
  ControlPlaneConfig config = harness_config(ControlMode::kController);
  config.faults.brownout(7 * kUsPerSec, 8 * kUsPerSec, 0.3);

  auto fingerprint = [&](ThreadPool* pool, ResultCache* cache) {
    ControlPlaneConfig c = config;
    c.pool = pool;
    c.cache = cache;
    const ControlOutcome out = run_control_plane(tenants, c);
    std::vector<std::uint64_t> bits;
    bits.push_back(std::bit_cast<std::uint64_t>(out.tail_violation_fraction));
    bits.push_back(std::bit_cast<std::uint64_t>(out.q1_miss_fraction));
    bits.push_back(std::bit_cast<std::uint64_t>(out.total_iops));
    bits.push_back(out.reprovisions);
    bits.push_back(out.demotions);
    for (const TenantOutcome& t : out.tenants) {
      bits.push_back(t.misses);
      bits.push_back(std::bit_cast<std::uint64_t>(t.final_iops));
    }
    for (const CompletionRecord& r : out.sim.completions) {
      bits.push_back(static_cast<std::uint64_t>(r.finish));
      bits.push_back(r.seq);
    }
    return bits;
  };

  ThreadPool serial(1);
  ThreadPool wide(8);
  ResultCache cache;
  const auto base = fingerprint(nullptr, nullptr);
  EXPECT_EQ(fingerprint(&serial, nullptr), base);
  EXPECT_EQ(fingerprint(&wide, nullptr), base);
  EXPECT_EQ(fingerprint(&wide, &cache), base);  // cold
  EXPECT_EQ(fingerprint(&wide, &cache), base);  // warm
  EXPECT_EQ(fingerprint(&serial, &cache), base);
}

TEST(ControlPlane, LocalDegradedSitsBetweenModes) {
  const std::vector<Trace> tenants = shifting_tenants(6, 16 * kUsPerSec, 9);
  ControlPlaneConfig config = harness_config(ControlMode::kLocalDegraded);
  config.faults.brownout(7 * kUsPerSec, 9 * kUsPerSec, 0.4);
  const ControlOutcome out = run_control_plane(tenants, config);
  // Local degradation demotes instead of reallocating: no controller, no
  // reprovisions, but the shared data path and accounting still run.
  EXPECT_EQ(out.reprovisions, 0u);
  EXPECT_EQ(out.epochs, 0u);
  EXPECT_GT(out.demotions, 0u);
  for (std::size_t i = 0; i < tenants.size(); ++i)
    EXPECT_EQ(out.tenants[i].final_iops, out.tenants[i].planned_iops);
}

// ---------------------------------------------------------------------------

// Forwards to a target bound after construction — breaks the ordering cycle
// between Shaper (whose ctor wires sinks) and the ControlLoop (which needs
// the scheduler the Shaper's factory builds).
struct LateSink final : EventSink {
  EventSink* target = nullptr;
  void on_event(const Event& e) override {
    if (target != nullptr) target->on_event(e);
  }
};

TEST(ControlPlane, OnlineShaperMatchesOfflineHarness) {
  // The *same* ControlLoop class closes the loop on both sides: offline as
  // simulate()'s sink, online as the Shaper's sink.  Replay the identical
  // merged trace through online::Shaper (one server at planned + dC) and
  // assert completions, reprovision count, demotions and final allocations
  // are bit-identical to run_control_plane's.
  const std::vector<Trace> tenants = shifting_tenants(4, 12 * kUsPerSec, 21);
  ControlPlaneConfig config = harness_config(ControlMode::kController);

  const ControlOutcome offline = run_control_plane(tenants, config);

  // Re-derive the static plan exactly as the harness does.
  std::vector<Trace> prefixes;
  for (const Trace& t : tenants)
    prefixes.push_back(t.slice(0, config.profile_window));
  ThreadPool serial(1);
  const std::vector<TenantSpec> specs = plan_tenant_specs_parallel(
      serial, prefixes, config.fraction, config.delta, nullptr);
  std::vector<double> allocations;
  double planned_total = 0;
  for (const TenantSpec& s : specs) {
    allocations.push_back(std::max(s.cmin_iops, 1.0));
    planned_total += allocations.back();
  }
  const double total = planned_total + overflow_headroom_iops(config.delta);

  ControllerConfig ctrl_cfg = config.controller;
  ctrl_cfg.fraction = config.fraction;
  ctrl_cfg.delta = config.delta;
  QosController controller(ctrl_cfg, allocations, total);

  ControlLoopConfig loop_config;
  loop_config.epoch = config.controller.epoch;
  loop_config.sla_fraction = config.fraction;
  loop_config.delta = config.delta;
  loop_config.breach = config.breach;

  LateSink late;
  std::unique_ptr<ControlLoop> loop;
  online::ShaperOptions options;
  options.shaping.delta = config.delta;
  options.shaping.sink = &late;
  options.cmin_iops = planned_total;  // one server at planned + dC = total
  options.make_custom_scheduler = [&]() {
    auto s = std::make_unique<ControlledTenantScheduler>(allocations,
                                                         config.delta, total);
    loop = std::make_unique<ControlLoop>(loop_config, tenants.size(), s.get(),
                                         &controller, nullptr);
    late.target = loop.get();  // every Shaper event now drives the loop
    return std::unique_ptr<Scheduler>(std::move(s));
  };
  const online::ReplayOutcome online =
      online::replay_trace(Trace::merge(tenants), options);
  ASSERT_NE(loop, nullptr);

  const std::vector<CompletionRecord>& completions = online.sim.completions;
  ASSERT_EQ(completions.size(), offline.sim.completions.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i].seq, offline.sim.completions[i].seq);
    EXPECT_EQ(completions[i].finish, offline.sim.completions[i].finish);
    EXPECT_EQ(completions[i].klass, offline.sim.completions[i].klass);
  }
  EXPECT_EQ(loop->reprovisions(), offline.reprovisions);
  EXPECT_GT(loop->reprovisions(), 0u);
  // The scheduler died with the replay's Shaper; every epoch applied the
  // controller's allocation to it through set_tenant_capacity, so compare
  // that vector.
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(controller.allocation()[t]),
              std::bit_cast<std::uint64_t>(offline.tenants[t].final_iops))
        << "tenant " << t;
  }
  std::uint64_t demotions = 0;
  for (const online::Decision& d : online.decisions)
    demotions += d.demoted ? 1 : 0;
  EXPECT_EQ(demotions, offline.demotions);
}

TEST(ControlPlane, ShaperReconfigureAppliesAtomically) {
  // An external controller shrinks a tenant's share between admissions; the
  // very next decision sees the new bound.
  ControlledTenantScheduler* scheduler = nullptr;
  online::ShaperOptions options;
  options.shaping.delta = from_ms(10);
  options.make_custom_scheduler = [&scheduler] {
    auto s = std::make_unique<ControlledTenantScheduler>(
        std::vector<double>{500.0}, from_ms(10), 600.0);
    scheduler = s.get();
    return std::unique_ptr<Scheduler>(std::move(s));
  };
  VirtualClock clock;
  online::Shaper shaper(options, clock);
  ASSERT_NE(scheduler, nullptr);

  Request r;
  r.seq = 0;
  EXPECT_EQ(shaper.admit(r, 0).admit, online::Admit::kQ1);
  scheduler->set_tenant_capacity(0, 100);
  r.seq = 1;
  const online::Decision d = shaper.admit(r, 1);
  EXPECT_EQ(d.admit, online::Admit::kQ2);  // 1-slot bound already occupied
  EXPECT_TRUE(d.demoted);                  // planned bound would have taken it
  EXPECT_EQ(shaper.demotions(), 1u);
}

}  // namespace
}  // namespace qos
