// Sharded observability determinism: the event stream a downstream sink
// observes, the assembled trace, and the fanned-in metric snapshot must all
// be bit-identical across shard counts, lookaheads and drain modes — a
// sharded run is indistinguishable from the 1-shard reference to every
// consumer.  Plus unit coverage for ShardedEventSink itself: the lane
// insertion invariant, the window order at several lane counts, the stream
// digest, and the overlap-drain handoff.
#include "obs/sharded_sink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/shaper.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sharded_fleet.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "stream/stream.h"
#include "trace/presets.h"

namespace qos {
namespace {

using stream::RequestStream;
using stream::ShardedOptions;
using stream::ShardedStats;
using stream::TenantSim;

constexpr Time kRun = 30 * kUsPerSec;

// One tenant per policy: the sharded observability path must hold for every
// scheduler, including the event-richest (Miser emits slack dispatches,
// Split drives two servers).
struct TenantSpec {
  Workload workload;
  Policy policy;
  double cmin;
};

const TenantSpec kTenants[] = {
    {Workload::kWebSearch, Policy::kMiser, 700},
    {Workload::kFinTrans, Policy::kSplit, 400},
    {Workload::kOpenMail, Policy::kFairQueue, 1'200},
    {Workload::kWebSearch, Policy::kFcfs, 900},
};

TenantSim build_tenant(std::uint32_t client) {
  const TenantSpec& spec = kTenants[client];
  ShapingConfig config;
  config.policy = spec.policy;
  TenantSim sim;
  sim.scheduler = make_scheduler(config, spec.cmin);
  sim.servers = make_servers(config, spec.cmin, sim.scheduler->server_count());
  return sim;
}

std::unique_ptr<RequestStream> tenant_stream() {
  std::vector<std::unique_ptr<RequestStream>> sources;
  for (const TenantSpec& t : kTenants)
    sources.push_back(stream::make_preset_stream(t.workload, kRun));
  return std::make_unique<stream::MergedStream>(std::move(sources));
}

struct ObservedRun {
  RecordingSink events;
  MetricRegistry registry;
  ShardedStats stats;
};

// Returned through a unique_ptr so the sink/registry addresses handed to
// ShardedOptions stay stable no matter how the result travels.
std::unique_ptr<ObservedRun> run_observed(int shards, Time lookahead = 10'000,
                                          bool overlap = true) {
  auto run = std::make_unique<ObservedRun>();
  auto s = tenant_stream();
  ShardedOptions options;
  options.shards = shards;
  options.lookahead = lookahead;
  options.overlap_drain = overlap;
  options.sink = &run->events;
  options.registry = &run->registry;
  run->stats = simulate_sharded(*s, build_tenant, options,
                                [](const CompletionRecord&) {});
  return run;
}

void expect_same_events(const std::vector<Event>& got,
                        const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "event " << i;
}

// Exact snapshot equality: integer metrics match exactly, and the
// double-valued aggregates (gauge values, histogram means, occupancy
// integrals) must be *bit*-identical — the fixed fan-in fold order
// guarantees it, and EXPECT_EQ on doubles asserts it.
void expect_same_snapshot(const MetricRegistry& got,
                          const MetricRegistry& want) {
  ASSERT_EQ(got.counters().size(), want.counters().size());
  for (const auto& [name, counter] : want.counters()) {
    const Counter* g = got.find_counter(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->value(), counter.value()) << name;
  }
  ASSERT_EQ(got.gauges().size(), want.gauges().size());
  for (const auto& [name, gauge] : want.gauges()) {
    const Gauge* g = got.find_gauge(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->value(), gauge.value()) << name;
  }
  ASSERT_EQ(got.histograms().size(), want.histograms().size());
  for (const auto& [name, hist] : want.histograms()) {
    const LatencyHistogram* g = got.find_histogram(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->count(), hist.count()) << name;
    EXPECT_EQ(g->min(), hist.min()) << name;
    EXPECT_EQ(g->max(), hist.max()) << name;
    EXPECT_EQ(g->mean_us(), hist.mean_us()) << name;
    for (double p : {0.5, 0.9, 0.99, 1.0})
      EXPECT_EQ(g->quantile(p), hist.quantile(p)) << name << " p" << p;
  }
  ASSERT_EQ(got.occupancies().size(), want.occupancies().size());
  for (const auto& [name, occ] : want.occupancies()) {
    const OccupancySeries* g = got.find_occupancy(name);
    ASSERT_NE(g, nullptr) << name;
    EXPECT_EQ(g->mean(), occ.mean()) << name;
    EXPECT_EQ(g->max(), occ.max()) << name;
    EXPECT_EQ(g->current(), occ.current()) << name;
    EXPECT_EQ(g->duration(), occ.duration()) << name;
  }
}

// ---------------------------------------------------------------------------
// End-to-end identity: sharded runs are observationally equal to 1 shard.

TEST(ShardObs, EventStreamIdenticalAcrossShardCounts) {
  auto ref = run_observed(1);
  ASSERT_GT(ref->events.events().size(), 0u);
  EXPECT_EQ(ref->stats.events_forwarded, ref->events.events().size());
  for (int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    auto got = run_observed(shards);
    expect_same_events(got->events.events(), ref->events.events());
    EXPECT_EQ(got->stats.event_digest, ref->stats.event_digest);
    EXPECT_EQ(got->stats.events_forwarded, ref->stats.events_forwarded);
  }
}

TEST(ShardObs, EventStreamIdenticalAcrossLookaheads) {
  auto ref = run_observed(2);
  for (Time lookahead : {Time{1'000}, Time{100'000}, kUsPerSec}) {
    SCOPED_TRACE(lookahead);
    auto got = run_observed(2, lookahead);
    expect_same_events(got->events.events(), ref->events.events());
    EXPECT_EQ(got->stats.event_digest, ref->stats.event_digest);
  }
}

TEST(ShardObs, EventStreamIdenticalAcrossDrainModes) {
  auto inline_drain = run_observed(4, 10'000, /*overlap=*/false);
  auto overlapped = run_observed(4, 10'000, /*overlap=*/true);
  expect_same_events(overlapped->events.events(),
                     inline_drain->events.events());
  EXPECT_EQ(overlapped->stats.event_digest, inline_drain->stats.event_digest);
}

TEST(ShardObs, DigestMatchesRecordedStream) {
  auto run = run_observed(2);
  EventStreamDigest recomputed;
  for (const Event& e : run->events.events()) recomputed.fold(e);
  EXPECT_EQ(recomputed, run->stats.event_digest);
}

TEST(ShardObs, MergedStreamIsCanonicallyOrdered) {
  auto run = run_observed(8);
  const auto& events = run->events.events();
  for (std::size_t i = 1; i < events.size(); ++i)
    ASSERT_FALSE(canonical_event_before(events[i], events[i - 1]))
        << "order violated at " << i;
}

TEST(ShardObs, TracerSpansIdenticalAcrossShardCounts) {
  auto traced_run = [](int shards) {
    Tracer tracer;
    tracer.annotate("shardobs", "mixed", 30'000);
    auto s = tenant_stream();
    ShardedOptions options;
    options.shards = shards;
    options.sink = &tracer;
    simulate_sharded(*s, build_tenant, options,
                     [](const CompletionRecord&) {});
    return tracer.data();
  };
  const TraceData ref = traced_run(1);
  ASSERT_GT(ref.spans.size(), 0u);
  for (int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    const TraceData got = traced_run(shards);
    ASSERT_EQ(got.spans.size(), ref.spans.size());
    for (std::size_t i = 0; i < got.spans.size(); ++i)
      ASSERT_EQ(got.spans[i], ref.spans[i]) << "span " << i;
    EXPECT_EQ(got.faults, ref.faults);
    EXPECT_EQ(got.slack, ref.slack);
    EXPECT_EQ(got.observed, ref.observed);
    EXPECT_EQ(got.dropped, ref.dropped);
  }
}

TEST(ShardObs, MetricSnapshotIdenticalAcrossShardCounts) {
  auto ref = run_observed(1);
  ASSERT_GT(ref->registry.counters().size() + ref->registry.histograms().size() +
                ref->registry.occupancies().size(),
            0u);
  for (int shards : {2, 8}) {
    SCOPED_TRACE(shards);
    auto got = run_observed(shards);
    expect_same_snapshot(got->registry, ref->registry);
  }
}

// 64 tenants with a long drain tail (tests/sharded_fleet.h): work-sized
// windows must leave every consumer's view identical to the per-tenant
// serial reference, at every shard count, lookahead and drain mode.
TEST(ShardObsManyTenants, IdenticalToSerialReferenceInEveryConfiguration) {
  const auto ref = fleet::serial_reference(/*observed=*/true);
  ASSERT_FALSE(ref->events.empty());
  EventStreamDigest ref_digest;
  for (const Event& e : ref->events) ref_digest.fold(e);
  const std::uint64_t per_target =
      ref->completions.size() / (fleet::kArrivalsPerLane * fleet::kTenants);

  struct Config {
    int shards;
    Time lookahead;
    bool overlap;
  };
  const Config configs[] = {{1, 10'000, true},  {2, 10'000, true},
                            {8, 10'000, true},  {8, 10'000, false},
                            {2, 1'000, true},   {2, kUsPerSec, false}};
  std::uint64_t windows_at_10ms = 0;
  for (const Config& c : configs) {
    SCOPED_TRACE(testing::Message() << "shards " << c.shards << " lookahead "
                                    << c.lookahead << " overlap "
                                    << c.overlap);
    CountingSink downstream;
    MetricRegistry registry;
    std::vector<CompletionRecord> got;
    auto s = fleet::merged_stream();
    const ShardedStats stats = simulate_sharded(
        *s, fleet::build_lane,
        ShardedOptions{.shards = c.shards,
                       .lookahead = c.lookahead,
                       .sink = &downstream,
                       .registry = &registry,
                       .overlap_drain = c.overlap},
        [&got](const CompletionRecord& r) { got.push_back(r); });

    ASSERT_EQ(got.size(), ref->completions.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], ref->completions[i]) << "at " << i;
    EXPECT_EQ(stats.events_forwarded, ref->events.size());
    EXPECT_EQ(downstream.total(), ref->events.size());
    EXPECT_EQ(stats.event_digest, ref_digest);
    expect_same_snapshot(registry, ref->registry);
    if (c.lookahead == 10'000) {
      if (windows_at_10ms == 0) windows_at_10ms = stats.windows;
      EXPECT_EQ(stats.windows, windows_at_10ms);
    }
    EXPECT_LE(stats.windows, 3 * per_target);  // not one per slice
  }
}

// ---------------------------------------------------------------------------
// ShardedEventSink unit coverage.

Event make_event(Time time, std::uint64_t seq, std::uint8_t server = 0,
                 EventKind kind = EventKind::kArrival) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.server = server;
  e.kind = kind;
  e.a = static_cast<std::int64_t>(seq) * 3 + server;  // distinguishable
  return e;
}

std::vector<Event> reference_merge(std::vector<Event> events) {
  std::stable_sort(events.begin(), events.end(), canonical_event_before);
  return events;
}

TEST(ShardedSink, LaneInsertionKeepsCanonicalOrder) {
  RecordingSink downstream;
  ShardedEventSink sink(&downstream);
  EventSink* lane = sink.lane(0);
  // A lane's clock never rewinds, but same-instant emissions may arrive
  // seq-descending (e.g. a completion of seq 5 then an arrival of seq 3 at
  // the same instant); the insertion invariant must settle them.
  lane->on_event(make_event(10, 5, 0, EventKind::kCompletion));
  lane->on_event(make_event(10, 3, 0, EventKind::kArrival));
  lane->on_event(make_event(10, 4, 1, EventKind::kDispatch));
  lane->on_event(make_event(20, 1, 0, EventKind::kCompletion));
  EXPECT_EQ(sink.buffered(), 4u);
  sink.flush();
  EXPECT_EQ(sink.buffered(), 0u);
  const auto& got = downstream.events();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].seq, 3u);
  EXPECT_EQ(got[1].seq, 4u);
  EXPECT_EQ(got[2].seq, 5u);
  EXPECT_EQ(got[3].seq, 1u);
}

TEST(ShardedSink, CursorMergeMatchesReferenceSort) {
  // A few lanes: the flush's window order must equal a stable sort of the
  // lane buffers' concatenation.
  RecordingSink downstream;
  ShardedEventSink sink(&downstream);
  std::vector<Event> all;
  // Four lanes with interleaved, gapped timelines; seqs globally unique.
  for (std::uint32_t lane_key = 0; lane_key < 4; ++lane_key) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      all.push_back(make_event(
          static_cast<Time>((i * 7 + lane_key * 3) % 90), i * 4 + lane_key,
          static_cast<std::uint8_t>(lane_key)));
    }
  }
  // Respect the lane-clock contract: feed each lane time-sorted.
  std::stable_sort(all.begin(), all.end(), canonical_event_before);
  for (const Event& e : all)
    sink.lane(e.server)->on_event(e);  // lane key == server here
  sink.flush();
  expect_same_events(downstream.events(), reference_merge(all));
  EXPECT_EQ(sink.forwarded(), all.size());
}

TEST(ShardedSink, ManyLaneFallbackMatchesCursorMerge) {
  // 12 active lanes: the window order has no lane-count special case, and
  // must give the same canonical stream as with a few lanes.
  RecordingSink downstream;
  ShardedEventSink sink(&downstream);
  std::vector<Event> all;
  for (std::uint32_t lane_key = 0; lane_key < 12; ++lane_key) {
    for (std::uint64_t i = 0; i < 20; ++i) {
      all.push_back(make_event(static_cast<Time>((i * 11 + lane_key) % 60),
                               i * 16 + lane_key,
                               static_cast<std::uint8_t>(lane_key)));
    }
  }
  std::vector<Event> expected = reference_merge(all);
  // Feed each lane its events in canonical (time-sorted) order.
  std::vector<std::vector<Event>> per_lane(12);
  for (const Event& e : expected) per_lane[e.server].push_back(e);
  for (std::uint32_t k = 0; k < 12; ++k)
    for (const Event& e : per_lane[k]) sink.lane(k)->on_event(e);
  sink.flush();
  expect_same_events(downstream.events(), expected);
}

TEST(ShardedSink, FlushMatchesReferenceMergeAtAnyLaneCount) {
  // The lane-count extremes the two tests above leave out: a single lane,
  // and many lanes whose timelines collide at shared instants (seqs
  // globally unique).  Each lane is fed its events in canonical order, per
  // the lane-clock contract.
  for (const std::uint32_t lanes : {1u, 64u}) {
    SCOPED_TRACE(lanes);
    RecordingSink downstream;
    ShardedEventSink sink(&downstream);
    std::vector<Event> all;
    for (std::uint32_t lane_key = 0; lane_key < lanes; ++lane_key)
      for (std::uint64_t i = 0; i < 30; ++i)
        all.push_back(
            make_event(static_cast<Time>((i * 11 + lane_key * 3) % 70),
                       i * lanes + lane_key, static_cast<std::uint8_t>(i % 2)));
    const std::vector<Event> expected = reference_merge(all);
    for (const Event& e : expected)
      sink.lane(static_cast<std::uint32_t>(e.seq % lanes))->on_event(e);
    sink.flush();
    expect_same_events(downstream.events(), expected);
    EXPECT_EQ(sink.forwarded(), all.size());
  }
}

TEST(ShardedSink, NullDownstreamStillCountsAndDigests) {
  ShardedEventSink counted(nullptr);
  RecordingSink recording;
  ShardedEventSink recorded(&recording);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Event e = make_event(static_cast<Time>(i), i);
    counted.lane(0)->on_event(e);
    recorded.lane(0)->on_event(e);
  }
  counted.flush();
  recorded.flush();
  EXPECT_EQ(counted.forwarded(), 10u);
  EXPECT_EQ(counted.digest(), recorded.digest());
}

TEST(ShardedSink, DigestIsOrderSensitive) {
  EventStreamDigest forward, reversed;
  std::vector<Event> events;
  for (std::uint64_t i = 0; i < 4; ++i)
    events.push_back(make_event(static_cast<Time>(i), i));
  for (const Event& e : events) forward.fold(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it)
    reversed.fold(*it);
  EXPECT_FALSE(forward == reversed);
  EXPECT_FALSE(forward == EventStreamDigest{});
}

TEST(ShardedSink, OverlapDrainMatchesInlineAcrossManyWindows) {
  RecordingSink inline_sink, overlap_sink;
  ShardedEventSink inline_merge(&inline_sink, /*overlap_drain=*/false);
  ShardedEventSink overlap_merge(&overlap_sink, /*overlap_drain=*/true);
  std::uint64_t seq = 0;
  for (int window = 0; window < 25; ++window) {
    for (std::uint32_t lane = 0; lane < 3; ++lane) {
      // Lane 2 stays empty on odd windows — empty lanes must be harmless.
      if (lane == 2 && window % 2 == 1) continue;
      for (int k = 0; k < 5; ++k) {
        const Event e = make_event(static_cast<Time>(window * 100 + k * 7),
                                   seq++, static_cast<std::uint8_t>(lane));
        inline_merge.lane(lane)->on_event(e);
        overlap_merge.lane(lane)->on_event(e);
      }
    }
    inline_merge.flush();
    overlap_merge.flush();
  }
  inline_merge.finish();  // no-op in inline mode
  overlap_merge.finish();
  expect_same_events(overlap_sink.events(), inline_sink.events());
  EXPECT_EQ(overlap_merge.digest(), inline_merge.digest());
  EXPECT_EQ(overlap_merge.forwarded(), inline_merge.forwarded());
}

TEST(ShardedSink, FinishIsIdempotentAndEmptyFlushIsFine) {
  RecordingSink downstream;
  ShardedEventSink sink(&downstream, /*overlap_drain=*/true);
  sink.flush();  // nothing buffered
  sink.lane(7)->on_event(make_event(1, 1, 7));
  sink.flush();
  sink.flush();  // empty again
  sink.finish();
  sink.finish();  // second finish is a no-op
  EXPECT_EQ(downstream.events().size(), 1u);
  EXPECT_EQ(sink.forwarded(), 1u);
}

TEST(ShardedSink, LanePointersAreStableAndKeyed) {
  ShardedEventSink sink(nullptr);
  EventSink* a = sink.lane(5);
  EventSink* b = sink.lane(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(sink.lane(5), a);  // same key, same lane
  sink.lane(9);
  EXPECT_EQ(sink.lane(2), b);  // later creation does not move lanes
}

}  // namespace
}  // namespace qos
