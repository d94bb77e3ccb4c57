// Streaming ingest equivalence: every RequestStream source must yield byte-
// for-byte the request sequence its materialized counterpart produces, and a
// streamed simulation must be bit-identical to the materialized reference —
// same completions, same event stream, same content digest for the cache.
#include "stream/stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/fcfs.h"
#include "core/shaper.h"
#include "obs/sharded_sink.h"
#include "obs/sink.h"
#include "runner/hash.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "trace/presets.h"

namespace qos {
namespace {

using stream::RequestStream;

// Drain a stream and also check the stream contract while at it.
std::vector<Request> drain(RequestStream& s) {
  std::vector<Request> out;
  while (auto r = s.next()) {
    EXPECT_TRUE(request_record_ok(*r));
    EXPECT_EQ(r->seq, out.size());
    if (!out.empty()) {
      EXPECT_GE(r->arrival, out.back().arrival);
    }
    out.push_back(*r);
  }
  EXPECT_FALSE(s.next().has_value()) << "nullopt must be sticky";
  return out;
}

void expect_same_sequence(const Trace& expected, RequestStream& s) {
  std::vector<Request> got = drain(s);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Request& a = expected[i];
    const Request& b = got[i];
    ASSERT_EQ(a.arrival, b.arrival) << "at " << i;
    ASSERT_EQ(a.seq, b.seq) << "at " << i;
    ASSERT_EQ(a.client, b.client) << "at " << i;
    ASSERT_EQ(a.lba, b.lba) << "at " << i;
    ASSERT_EQ(a.size_blocks, b.size_blocks) << "at " << i;
    ASSERT_EQ(a.is_write, b.is_write) << "at " << i;
  }
}

constexpr Time kShortRun = 60 * kUsPerSec;

TEST(StreamGen, EveryPresetMatchesMaterialized) {
  for (Workload w : {Workload::kWebSearch, Workload::kFinTrans,
                     Workload::kOpenMail}) {
    Trace trace = preset_trace(w, kShortRun);
    auto s = stream::make_preset_stream(w, kShortRun);
    SCOPED_TRACE(workload_name(w));
    expect_same_sequence(trace, *s);
  }
}

TEST(StreamGen, WorkloadWithTransitionMatrixAndGiants) {
  WorkloadSpec spec;
  spec.states = {{200, 0.5}, {2'000, 0.2}, {0, 0.3}};
  spec.transition = {0.0, 0.7, 0.3,  //
                     0.5, 0.0, 0.5,  //
                     0.9, 0.1, 0.0};
  spec.batches = {.batches_per_sec = 2.0,
                  .mean_size = 12,
                  .spread_us = 3'000,
                  .giant_prob = 0.2,
                  .giant_factor = 6.0,
                  .max_size = 200};
  Trace trace = generate_workload(spec, kShortRun, 77);
  auto s = stream::make_workload_stream(spec, kShortRun, 77);
  expect_same_sequence(trace, *s);
}

TEST(StreamGen, PoissonMatchesMaterialized) {
  Trace trace = generate_poisson(800, kShortRun, 5);
  auto s = stream::make_poisson_stream(800, kShortRun, 5);
  expect_same_sequence(trace, *s);
}

TEST(StreamGen, DigestMatchesHashTraceForEveryPreset) {
  for (Workload w : {Workload::kWebSearch, Workload::kFinTrans,
                     Workload::kOpenMail}) {
    Trace trace = preset_trace(w, kShortRun);
    auto s = stream::make_preset_stream(w, kShortRun);
    stream::DigestingStream digesting(*s);
    while (digesting.next()) {
    }
    SCOPED_TRACE(workload_name(w));
    EXPECT_EQ(digesting.count(), trace.size());
    EXPECT_EQ(digesting.finish(), hash_trace(trace));
  }
}

TEST(StreamGen, DigestDistinguishesPrefix) {
  // Count-at-the-end must still separate a stream from its proper prefix.
  Trace t2 = Trace(std::vector<Request>{Request{.arrival = 5}});
  Trace t0;
  EXPECT_NE(hash_trace(t2), hash_trace(t0));
}

// Hand-built source k for the many-source merge: arrivals on a coarse grid
// shared by every source, so equal instants across sources are the rule;
// every seventh source is empty, the rest run dry at different times, and
// odd sources repeat each instant twice.  lba tags (source, index).
Trace tied_source(std::size_t k) {
  std::vector<Request> requests;
  if (k % 7 == 3) return Trace(std::move(requests));
  const std::size_t n = 5 + (k * 13) % 40;
  const std::size_t repeat = 1 + k % 2;
  const Time step = static_cast<Time>(10 * (1 + k % 3));
  for (std::size_t j = 0; j < n; ++j)
    requests.push_back(
        Request{.arrival = static_cast<Time>(j / repeat) * step,
                .lba = k * 1'000 + j});
  return Trace(std::move(requests));
}

TEST(StreamMerge, MatchesTraceMerge) {
  std::vector<Trace> parts;
  parts.push_back(preset_trace(Workload::kWebSearch, kShortRun));
  parts.push_back(preset_trace(Workload::kFinTrans, kShortRun));
  parts.push_back(generate_poisson(200, kShortRun, 3));
  Trace merged = Trace::merge(parts);

  std::vector<std::unique_ptr<RequestStream>> sources;
  sources.push_back(stream::make_preset_stream(Workload::kWebSearch,
                                               kShortRun));
  sources.push_back(stream::make_preset_stream(Workload::kFinTrans,
                                               kShortRun));
  sources.push_back(stream::make_poisson_stream(200, kShortRun, 3));
  stream::MergedStream s(std::move(sources));
  expect_same_sequence(merged, s);

  // Many sources with deliberate cross-source ties: the lowest source wins
  // each tie, then within-source order, as Trace::merge's stable sort does.
  // The counts cover the empty merge, one source, and source counts on and
  // either side of a power of two (the merge's tree pads to one); each runs
  // again behind a leading empty source.
  for (std::size_t count : {0, 1, 2, 3, 5, 63, 64, 65, 130}) {
    for (bool leading_empty : {false, true}) {
      SCOPED_TRACE(count);
      SCOPED_TRACE(leading_empty);
      std::vector<Trace> tied;
      if (leading_empty) tied.emplace_back();
      for (std::size_t k = 0; k < count; ++k) tied.push_back(tied_source(k));
      const Trace want = Trace::merge(tied);
      std::vector<std::unique_ptr<RequestStream>> tied_sources;
      for (const Trace& t : tied)
        tied_sources.push_back(std::make_unique<stream::TraceStream>(t));
      stream::MergedStream tied_merge(std::move(tied_sources));
      expect_same_sequence(want, tied_merge);
    }
  }

  // kTimeMax is a legal arrival as well as the head time of a dry source:
  // at that instant the lowest source that still holds a record wins, so
  // records at kTimeMax come out in source order while sources that ran
  // dry earlier (or never had a record) are passed over.
  std::vector<Trace> late;
  auto at = [](std::vector<Time> arrivals, std::uint64_t tag) {
    std::vector<Request> requests;
    for (std::size_t j = 0; j < arrivals.size(); ++j)
      requests.push_back(Request{.arrival = arrivals[j], .lba = tag + j});
    return Trace(std::move(requests));
  };
  late.push_back(at({1, 2}, 0));                  // dry early
  late.push_back(at({kTimeMax, kTimeMax}, 100));  // only kTimeMax
  late.push_back(at({}, 200));                    // never held one
  late.push_back(at({3, kTimeMax}, 300));         // reaches kTimeMax
  late.push_back(at({4}, 400));                   // dry late
  late.push_back(at({kTimeMax}, 500));            // beside 2 padding leaves
  const Trace want = Trace::merge(late);
  std::vector<std::unique_ptr<RequestStream>> late_sources;
  for (const Trace& t : late)
    late_sources.push_back(std::make_unique<stream::TraceStream>(t));
  stream::MergedStream late_merge(std::move(late_sources));
  expect_same_sequence(want, late_merge);
  ASSERT_EQ(want.size(), 8u);
  for (std::size_t i = 4; i < want.size(); ++i)
    EXPECT_EQ(want[i].arrival, kTimeMax);
  EXPECT_EQ(want[4].client, 1u);
  EXPECT_EQ(want[5].client, 1u);
  EXPECT_EQ(want[6].client, 3u);
  EXPECT_EQ(want[7].client, 5u);
}

// A one-shard sharded run over one tenant is the streamed form of
// simulate(): one lane, the same engine calls.  Completions, the event
// stream (in the sharded sink's canonical order) and the input digest must
// all equal the materialized reference.
TEST(StreamSim, CompletionsEventsAndDigestMatchMaterialized) {
  const Trace trace = preset_trace(Workload::kFinTrans, kShortRun);
  const ShapingConfig config;  // Miser, the default policy
  const double cmin = 600;
  auto factory = [&config, cmin](std::uint32_t) {
    stream::TenantSim sim;
    sim.scheduler = make_scheduler(config, cmin);
    sim.servers = make_servers(config, cmin, sim.scheduler->server_count());
    return sim;
  };

  // simulate_sharded attaches every lane's scheduler to the lane sink, so
  // the reference does too: Miser's own events are part of the stream.
  RecordingSink mat_sink;
  stream::TenantSim ref = factory(0);
  ASSERT_EQ(ref.servers.size(), 1u);
  ref.scheduler->attach_observability(&mat_sink, nullptr);
  const SimResult mat =
      simulate(trace, *ref.scheduler, *ref.servers[0], &mat_sink);

  RecordingSink str_sink;
  auto s = stream::make_preset_stream(Workload::kFinTrans, kShortRun);
  stream::DigestingStream digesting(*s);
  stream::ShardedOptions options;  // shards = 1
  options.sink = &str_sink;
  std::vector<CompletionRecord> got;
  const stream::ShardedStats stats = stream::simulate_sharded(
      digesting, factory, options,
      [&got](const CompletionRecord& record) { got.push_back(record); });

  ASSERT_EQ(got.size(), mat.completions.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], mat.completions[i]) << "at " << i;
  std::vector<Event> want = mat_sink.events();
  std::stable_sort(want.begin(), want.end(), canonical_event_before);
  ASSERT_EQ(str_sink.events().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(str_sink.events()[i], want[i]) << "at " << i;
  EXPECT_EQ(digesting.finish(), hash_trace(trace));

  // The run's counters agree with what the reference observed.
  EXPECT_EQ(stats.tenants, 1u);
  EXPECT_EQ(stats.requests, trace.size());
  EXPECT_EQ(stats.completions, got.size());
  EXPECT_EQ(stats.dispatches,
            static_cast<std::uint64_t>(std::count_if(
                want.begin(), want.end(), [](const Event& e) {
                  return e.kind == EventKind::kDispatch;
                })));
  EXPECT_EQ(stats.makespan, got.back().finish);
  EXPECT_EQ(stats.events_forwarded, want.size());
}

// A one-shard run's counters must account for every engine event the sink
// saw (arrival, dispatch, completion); the only other events are FCFS's
// one admit per request, since simulate_sharded attaches each lane.
TEST(StreamSim, StatsCountEngineEvents) {
  auto s = stream::make_poisson_stream(500, kShortRun, 21);
  auto factory = [](std::uint32_t) {
    stream::TenantSim sim;
    sim.scheduler = std::make_unique<FcfsScheduler>();
    sim.servers.push_back(std::make_unique<ConstantRateServer>(2'000));
    return sim;
  };
  RecordingSink sink;
  stream::ShardedOptions options;  // shards = 1
  options.sink = &sink;
  std::uint64_t seen = 0;
  const stream::ShardedStats stats = stream::simulate_sharded(
      *s, factory, options, [&seen](const CompletionRecord&) { ++seen; });
  EXPECT_EQ(stats.tenants, 1u);
  EXPECT_EQ(stats.completions, seen);
  EXPECT_EQ(stats.requests, stats.completions);  // FCFS never fans out
  EXPECT_EQ(stats.dispatches, stats.requests);
  auto count = [&sink](EventKind kind) {
    return static_cast<std::uint64_t>(std::count_if(
        sink.events().begin(), sink.events().end(),
        [kind](const Event& e) { return e.kind == kind; }));
  };
  EXPECT_EQ(count(EventKind::kArrival), stats.requests);
  EXPECT_EQ(count(EventKind::kDispatch), stats.dispatches);
  EXPECT_EQ(count(EventKind::kCompletion), stats.completions);
  EXPECT_EQ(count(EventKind::kAdmit), stats.requests);
  EXPECT_EQ(stats.events_forwarded, stats.events() + stats.requests);
  EXPECT_EQ(sink.events().size(), stats.events_forwarded);
  EXPECT_GT(stats.makespan, 0);
}

}  // namespace
}  // namespace qos
