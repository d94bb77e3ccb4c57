// Streaming ingest equivalence: every RequestStream source must yield byte-
// for-byte the request sequence its materialized counterpart produces, and a
// streamed simulation must be bit-identical to the materialized reference —
// same completions, same event stream, same content digest for the cache.
#include "stream/stream.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/fcfs.h"
#include "core/shaper.h"
#include "runner/hash.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "stream/gen_stream.h"
#include "stream/spc_stream.h"
#include "stream/stream_sim.h"
#include "trace/presets.h"
#include "trace/spc.h"

namespace qos {
namespace {

using stream::RequestStream;

// Drain a stream and also check the stream contract while at it.
std::vector<Request> drain(RequestStream& s) {
  std::vector<Request> out;
  while (auto r = s.next()) {
    EXPECT_TRUE(request_record_ok(*r));
    EXPECT_EQ(r->seq, out.size());
    if (!out.empty()) EXPECT_GE(r->arrival, out.back().arrival);
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

TEST(StreamGen, ParetoOnOffMatchesMaterialized) {
  Trace trace = generate_pareto_onoff(1'000, 1.5, 0.05, 0.2, kShortRun, 11);
  auto s = stream::make_pareto_onoff_stream(1'000, 1.5, 0.05, 0.2, kShortRun,
                                            11);
  expect_same_sequence(trace, *s);
}

TEST(StreamGen, RegimeSwitchingMatchesMaterialized) {
  RegimeSchedule schedule;
  schedule.phase(0, 300)
      .phase(10 * kUsPerSec, 3'000,
             {.batches_per_sec = 5.0, .mean_size = 20, .spread_us = 1'000})
      .phase(25 * kUsPerSec, 0)
      .phase(40 * kUsPerSec, 900,
             {.batches_per_sec = 1.0, .mean_size = 6});
  Trace trace = generate_regime_switching(schedule, kShortRun, 123);
  auto s = stream::make_regime_stream(schedule, kShortRun, 123);
  expect_same_sequence(trace, *s);
}

TEST(StreamGen, BmodelFallbackMatchesMaterialized) {
  Trace trace = generate_bmodel(500, 0.75, 12, kShortRun, 9);
  auto s = stream::make_bmodel_stream(500, 0.75, 12, kShortRun, 9);
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
  for (std::size_t count : {1, 64, 130}) {
    SCOPED_TRACE(count);
    std::vector<Trace> tied;
    for (std::size_t k = 0; k < count; ++k) tied.push_back(tied_source(k));
    const Trace want = Trace::merge(tied);
    std::vector<std::unique_ptr<RequestStream>> tied_sources;
    for (Trace& t : tied)
      tied_sources.push_back(
          std::make_unique<stream::TraceStream>(std::move(t)));
    stream::MergedStream tied_merge(std::move(tied_sources));
    expect_same_sequence(want, tied_merge);
  }
}

TEST(StreamSim, CompletionsEventsAndDigestMatchMaterialized) {
  Trace trace = preset_trace(Workload::kFinTrans, kShortRun);
  ShapingConfig config;  // Miser, the default policy
  const double cmin = 600;
  const double total = cmin + config.resolved_headroom_iops();

  RecordingSink mat_sink;
  auto mat_sched = make_scheduler(config, cmin);
  ConstantRateServer mat_server(total);
  SimResult mat = simulate(trace, *mat_sched, mat_server, &mat_sink);

  RecordingSink str_sink;
  auto str_sched = make_scheduler(config, cmin);
  ConstantRateServer str_server(total);
  auto s = stream::make_preset_stream(Workload::kFinTrans, kShortRun);
  stream::DigestingStream digesting(*s);
  SimResult got = stream::collect_stream(digesting, *str_sched, str_server,
                                         &str_sink);

  ASSERT_EQ(got.completions.size(), mat.completions.size());
  for (std::size_t i = 0; i < got.completions.size(); ++i)
    ASSERT_EQ(got.completions[i], mat.completions[i]) << "at " << i;
  ASSERT_EQ(str_sink.events().size(), mat_sink.events().size());
  for (std::size_t i = 0; i < str_sink.events().size(); ++i)
    ASSERT_EQ(str_sink.events()[i], mat_sink.events()[i]) << "at " << i;
  EXPECT_EQ(digesting.finish(), hash_trace(trace));
}

TEST(StreamSim, StatsCountEngineEvents) {
  auto s = stream::make_poisson_stream(500, kShortRun, 21);
  FcfsScheduler fcfs;
  ConstantRateServer server(2'000);
  Server* servers[] = {&server};
  std::uint64_t seen = 0;
  auto stats = stream::simulate_stream(
      *s, fcfs, servers, nullptr,
      [&seen](const CompletionRecord&) { ++seen; });
  EXPECT_EQ(stats.completions, seen);
  EXPECT_EQ(stats.requests, stats.completions);  // FCFS never fans out
  EXPECT_EQ(stats.events(), stats.requests + stats.dispatches +
                                stats.completions);
  EXPECT_GT(stats.makespan, 0);
}

// ---- SPC streaming ----

class StreamSpcFile : public ::testing::Test {
 protected:
  void write_fixture(const std::string& text) {
    // Unique per test: ctest runs each test as its own process, in parallel.
    path_ = ::testing::TempDir() + "stream_spc_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }

  void TearDown() override {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
};

// In-order body with malformed lines, blank lines, tie timestamps and a
// mildly out-of-order tail — everything the materialized parser tolerates.
const char kFixture[] =
    "0,1234,4096,r,0.000000\n"
    "\n"
    "garbage line\n"
    "1,5678,8192,W,0.125000\n"
    "2,100,1024,w,0.125000\n"
    "0,1,512,x,1.0\n"
    "3,200,512,r,0.500000\n"
    "1,300,2048,R,0.400000\n"   // out of order by 100 ms
    "2,400,512,w,0.600000\n";

TEST_F(StreamSpcFile, ChunkedMatchesMaterialized) {
  write_fixture(kFixture);
  std::size_t mat_skipped = 0;
  auto trace = try_load_spc_file(path_, &mat_skipped);
  ASSERT_TRUE(trace.has_value());

  // A 7-byte chunk forces every line across a refill boundary.
  for (std::size_t chunk : {std::size_t{7}, std::size_t{1} << 20}) {
    stream::SpcStreamOptions options;
    options.chunk_bytes = chunk;
    auto s = stream::try_open_spc_stream(path_, options);
    ASSERT_NE(s, nullptr);
    SCOPED_TRACE(chunk);
    expect_same_sequence(*trace, *s);
    EXPECT_EQ(s->skipped_lines(), mat_skipped);
  }
}

TEST_F(StreamSpcFile, MmapMatchesMaterialized) {
  write_fixture(kFixture);
  auto trace = try_load_spc_file(path_);
  ASSERT_TRUE(trace.has_value());
  stream::SpcStreamOptions options;
  options.use_mmap = true;
  auto s = stream::try_open_spc_stream(path_, options);
  ASSERT_NE(s, nullptr);
  expect_same_sequence(*trace, *s);
}

TEST_F(StreamSpcFile, NoTrailingNewline) {
  write_fixture("0,1,512,r,0.5\n0,2,512,w,1.5");
  auto trace = try_load_spc_file(path_);
  auto s = stream::try_open_spc_stream(path_);
  ASSERT_NE(s, nullptr);
  expect_same_sequence(*trace, *s);
}

TEST_F(StreamSpcFile, EmptyFile) {
  write_fixture("");
  for (bool mmap : {false, true}) {
    stream::SpcStreamOptions options;
    options.use_mmap = mmap;
    auto s = stream::try_open_spc_stream(path_, options);
    ASSERT_NE(s, nullptr);
    EXPECT_FALSE(s->next().has_value());
    EXPECT_EQ(s->skipped_lines(), 0u);
  }
}

TEST_F(StreamSpcFile, MissingFileReturnsNull) {
  EXPECT_EQ(stream::try_open_spc_stream("/nonexistent/definitely/not.spc"),
            nullptr);
  stream::SpcStreamOptions options;
  options.use_mmap = true;
  EXPECT_EQ(
      stream::try_open_spc_stream("/nonexistent/definitely/not.spc", options),
      nullptr);
}

TEST_F(StreamSpcFile, DisorderBeyondWindowFailsLoudly) {
  // 2 s of disorder against a 1 s window: the early record is released
  // before the late one surfaces — the stream must abort, not mis-sort.
  write_fixture(
      "0,1,512,r,5.0\n"
      "0,2,512,r,9.0\n"
      "0,3,512,r,3.0\n");
  auto s = stream::try_open_spc_stream(path_);
  ASSERT_NE(s, nullptr);
  EXPECT_DEATH(
      {
        while (s->next()) {
        }
      },
      "Invariant");
}

TEST_F(StreamSpcFile, StreamedSimulationMatchesMaterialized) {
  write_fixture(kFixture);
  auto trace = try_load_spc_file(path_);
  ASSERT_TRUE(trace.has_value());

  FcfsScheduler mat_sched;
  ConstantRateServer mat_server(100);
  SimResult mat = simulate(*trace, mat_sched, mat_server);

  auto s = stream::try_open_spc_stream(path_);
  ASSERT_NE(s, nullptr);
  FcfsScheduler str_sched;
  ConstantRateServer str_server(100);
  SimResult got = stream::collect_stream(*s, str_sched, str_server);
  ASSERT_EQ(got.completions.size(), mat.completions.size());
  for (std::size_t i = 0; i < got.completions.size(); ++i)
    ASSERT_EQ(got.completions[i], mat.completions[i]) << "at " << i;
}

}  // namespace
}  // namespace qos
