// Sharded simulation determinism: shard count and lookahead are pure
// parallelism/throughput knobs — every configuration must produce the
// byte-identical canonical completion sequence, which itself must equal the
// per-tenant serial reference merged by (finish, seq, server).
#include "stream/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/shaper.h"
#include "sharded_fleet.h"
#include "sim/engine.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "stream/gen_stream.h"
#include "stream/stream.h"
#include "trace/presets.h"

namespace qos {
namespace {

using stream::RequestStream;
using stream::ShardedOptions;
using stream::TenantSim;

constexpr Time kRun = 60 * kUsPerSec;

// Three dissimilar tenants: each preset behind a different policy, so the
// sharding layer is exercised against single- and dual-server lanes and
// schedulers with real internal state.
struct TenantSpec {
  Workload workload;
  Policy policy;
  double cmin;
};

const TenantSpec kTenants[] = {
    {Workload::kWebSearch, Policy::kMiser, 700},
    {Workload::kFinTrans, Policy::kSplit, 400},
    {Workload::kOpenMail, Policy::kFairQueue, 1'200},
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

bool merged_before(const CompletionRecord& a, const CompletionRecord& b) {
  if (a.finish != b.finish) return a.finish < b.finish;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.server < b.server;
}

// The serial reference: simulate each tenant's slice of the merged trace on
// its own lane, concatenate, sort canonically.
SimResult reference_result() {
  std::vector<Trace> parts;
  for (const TenantSpec& t : kTenants)
    parts.push_back(preset_trace(t.workload, kRun));
  Trace merged = Trace::merge(parts);

  SimResult all;
  for (std::uint32_t c = 0; c < std::size(kTenants); ++c) {
    std::vector<Request> mine;
    for (const Request& r : merged)
      if (r.client == c) mine.push_back(r);  // global seq kept on purpose
    TenantSim sim = build_tenant(c);
    std::vector<Server*> servers;
    for (auto& s : sim.servers) servers.push_back(s.get());

    // Drive the trace slice directly — the slice keeps global seq numbers,
    // so Trace (which renumbers) is not usable here.
    SimEngine engine(*sim.scheduler, servers, nullptr);
    auto collect = [&all](const CompletionRecord& r) {
      all.completions.push_back(r);
    };
    for (const Request& r : mine) {
      engine.advance_until(r.arrival, collect);
      engine.push_arrival(r);
    }
    engine.advance_until(kTimeMax, collect);
  }
  std::stable_sort(all.completions.begin(), all.completions.end(),
                   merged_before);
  return all;
}

TEST(ShardDeterminism, MatchesSerialReferencePerTenant) {
  SimResult expected = reference_result();
  auto s = tenant_stream();
  SimResult got = simulate_sharded(*s, build_tenant, ShardedOptions{});
  ASSERT_EQ(got.completions.size(), expected.completions.size());
  for (std::size_t i = 0; i < got.completions.size(); ++i)
    ASSERT_EQ(got.completions[i], expected.completions[i]) << "at " << i;
}

TEST(ShardDeterminism, IdenticalAcrossShardCounts) {
  auto s1 = tenant_stream();
  SimResult ref = simulate_sharded(*s1, build_tenant,
                                   ShardedOptions{.shards = 1});
  for (int shards : {2, 8}) {
    auto s = tenant_stream();
    SimResult got = simulate_sharded(*s, build_tenant,
                                     ShardedOptions{.shards = shards});
    SCOPED_TRACE(shards);
    ASSERT_EQ(got.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < got.completions.size(); ++i)
      ASSERT_EQ(got.completions[i], ref.completions[i]) << "at " << i;
  }
}

TEST(ShardDeterminism, IdenticalAcrossLookahead) {
  auto s1 = tenant_stream();
  SimResult ref = simulate_sharded(*s1, build_tenant,
                                   ShardedOptions{.shards = 2});
  for (Time lookahead : {Time{1'000}, Time{100'000}, kUsPerSec}) {
    auto s = tenant_stream();
    SimResult got = simulate_sharded(
        *s, build_tenant,
        ShardedOptions{.shards = 2, .lookahead = lookahead});
    SCOPED_TRACE(lookahead);
    ASSERT_EQ(got.completions.size(), ref.completions.size());
    for (std::size_t i = 0; i < got.completions.size(); ++i)
      ASSERT_EQ(got.completions[i], ref.completions[i]) << "at " << i;
  }
}

TEST(ShardStats, CountsAndInvariants) {
  auto s = tenant_stream();
  std::uint64_t emitted = 0;
  Time last_finish = 0;
  auto stats = simulate_sharded(*s, build_tenant, ShardedOptions{.shards = 4},
                                [&](const CompletionRecord& r) {
                                  ++emitted;
                                  EXPECT_GE(r.finish, last_finish);
                                  last_finish = r.finish;
                                });
  EXPECT_EQ(stats.tenants, std::size(kTenants));
  EXPECT_EQ(stats.completions, emitted);
  EXPECT_EQ(stats.completions, stats.requests);  // none of these fan out
  EXPECT_EQ(stats.makespan, last_finish);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_EQ(stats.events(),
            stats.requests + stats.dispatches + stats.completions);

  std::vector<Trace> parts;
  for (const TenantSpec& t : kTenants)
    parts.push_back(preset_trace(t.workload, kRun));
  EXPECT_EQ(stats.requests, Trace::merge(parts).size());
}

// 64 tenants: windows sized by work, over an arrival-dense stretch and a
// long drain tail (tests/sharded_fleet.h).  The windows taken are a pure
// function of the input, and far fewer than one per lookahead slice.
TEST(ShardManyTenants, MatchesSerialReferenceAcrossShardsAndLookaheads) {
  const auto ref = fleet::serial_reference(/*observed=*/false);
  ASSERT_FALSE(ref->completions.empty());
  // The under-provisioned lanes keep completing for well over another run
  // length after the last arrival.
  ASSERT_GT(ref->completions.back().finish,
            ref->last_arrival + fleet::kRun);
  const std::uint64_t requests = ref->completions.size();
  const std::uint64_t per_target =
      requests / (fleet::kArrivalsPerLane * fleet::kTenants);

  for (Time lookahead : {Time{1'000}, Time{10'000}, kUsPerSec}) {
    std::uint64_t windows = 0;
    for (int shards : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message() << "lookahead " << lookahead
                                      << " shards " << shards);
      auto s = fleet::merged_stream();
      std::vector<CompletionRecord> got;
      const stream::ShardedStats stats = simulate_sharded(
          *s, fleet::build_lane,
          ShardedOptions{.shards = shards, .lookahead = lookahead},
          [&got](const CompletionRecord& r) { got.push_back(r); });
      ASSERT_EQ(got.size(), ref->completions.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref->completions[i]) << "at " << i;
      EXPECT_EQ(stats.tenants, fleet::kTenants);
      if (shards == 1) windows = stats.windows;
      EXPECT_EQ(stats.windows, windows);
      // One window per lookahead slice would be thousands here.
      EXPECT_LE(stats.windows, 3 * per_target);
    }
  }
}

TEST(ShardStats, SingleTenantDegeneratesToStreamedRun) {
  // One tenant, one shard: sharding reduces to plain streaming; the
  // canonical merge must then be simulate()'s retire order untouched.
  Trace trace = preset_trace(Workload::kFinTrans, kRun);
  ShapingConfig config;
  auto sched = make_scheduler(config, 500);
  ConstantRateServer server(500 + config.resolved_headroom_iops());
  SimResult expected = simulate(trace, *sched, server);

  auto factory = [&config](std::uint32_t) {
    TenantSim sim;
    sim.scheduler = make_scheduler(config, 500);
    sim.servers.push_back(std::make_unique<ConstantRateServer>(
        500 + config.resolved_headroom_iops()));
    return sim;
  };
  std::vector<std::unique_ptr<RequestStream>> sources;
  sources.push_back(stream::make_preset_stream(Workload::kFinTrans, kRun));
  stream::MergedStream s(std::move(sources));
  SimResult got = simulate_sharded(s, factory, ShardedOptions{});

  std::stable_sort(expected.completions.begin(), expected.completions.end(),
                   merged_before);
  ASSERT_EQ(got.completions.size(), expected.completions.size());
  for (std::size_t i = 0; i < got.completions.size(); ++i)
    ASSERT_EQ(got.completions[i], expected.completions[i]) << "at " << i;
}

}  // namespace
}  // namespace qos
