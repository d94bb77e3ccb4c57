// The 64-tenant fleet shared by the sharded simulation and observability
// suites, plus the per-tenant serial reference both compare against.
//
// Tenants cycle the WebSearch / FinTrans / OpenMail presets (one generator
// seed each) and the Miser / Split / FairQueue / FCFS policies.  Every fifth
// lane is provisioned below its preset's offered load, so its backlog keeps
// completing long after the last arrival: the drain-tail regime where
// barrier windows widen, next to the arrival-dense regime where the
// per-window arrival target cuts them.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/shaper.h"
#include "obs/metrics.h"
#include "obs/sharded_sink.h"
#include "obs/sink.h"
#include "sim/engine.h"
#include "sim/server.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "stream/stream.h"
#include "trace/presets.h"

namespace qos::fleet {

inline constexpr std::uint32_t kTenants = 64;
inline constexpr Time kRun = 6 * kUsPerSec;

/// Arrivals per lane that one barrier window feeds before it is cut at the
/// next lookahead edge (the target in stream/sharded.cpp).
inline constexpr std::uint64_t kArrivalsPerLane = 32;

inline Workload workload(std::uint32_t client) {
  constexpr Workload kCycle[] = {Workload::kWebSearch, Workload::kFinTrans,
                                 Workload::kOpenMail};
  return kCycle[client % 3];
}

inline bool underprovisioned(std::uint32_t client) { return client % 5 == 4; }

inline stream::TenantSim build_lane(std::uint32_t client) {
  constexpr Policy kPolicies[] = {Policy::kMiser, Policy::kSplit,
                                  Policy::kFairQueue, Policy::kFcfs};
  constexpr double kCmin[] = {700, 400, 1'200};  // comfortably above load
  ShapingConfig config;
  config.policy = kPolicies[client % 4];
  double cmin = kCmin[client % 3];
  if (underprovisioned(client)) {
    cmin /= 8;  // WS 175, FT 100, OM 300 IOPS in all, against 330/110/534
    config.headroom_override_iops = cmin;
  }
  stream::TenantSim sim;
  sim.scheduler = make_scheduler(config, cmin);
  sim.servers = make_servers(config, cmin, sim.scheduler->server_count());
  return sim;
}

inline std::unique_ptr<stream::RequestStream> merged_stream() {
  std::vector<std::unique_ptr<stream::RequestStream>> sources;
  for (std::uint32_t c = 0; c < kTenants; ++c)
    sources.push_back(stream::make_preset_stream(workload(c), kRun, c));
  return std::make_unique<stream::MergedStream>(std::move(sources));
}

inline Trace merged_trace() {
  std::vector<Trace> parts;
  for (std::uint32_t c = 0; c < kTenants; ++c)
    parts.push_back(preset_trace(workload(c), kRun, c));
  return Trace::merge(parts);
}

inline bool completion_before(const CompletionRecord& a,
                              const CompletionRecord& b) {
  if (a.finish != b.finish) return a.finish < b.finish;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.server < b.server;
}

/// What a run looks like when every tenant is simulated alone, on one
/// thread, in one uncut pass.
struct SerialReference {
  Time last_arrival = 0;
  std::vector<CompletionRecord> completions;  ///< (finish, seq, server)
  std::vector<Event> events;                  ///< canonical; when observed
  MetricRegistry registry;  ///< lane registries fanned in tenant-ascending
};

/// Each tenant's slice of the merged trace (global seq kept) through its
/// own SimEngine, drained to the end; then completions and events in the
/// canonical merged orders.  With `observed`, lanes record events and
/// metrics exactly as simulate_sharded attaches them.
inline std::unique_ptr<SerialReference> serial_reference(bool observed) {
  auto ref = std::make_unique<SerialReference>();
  const Trace merged = merged_trace();
  ref->last_arrival = merged[merged.size() - 1].arrival;
  std::vector<std::vector<Request>> slices(kTenants);
  for (const Request& r : merged) slices[r.client].push_back(r);

  for (std::uint32_t c = 0; c < kTenants; ++c) {
    stream::TenantSim sim = build_lane(c);
    std::vector<Server*> servers;
    for (auto& s : sim.servers) servers.push_back(s.get());
    RecordingSink events;
    MetricRegistry registry;
    if (observed) sim.scheduler->attach_observability(&events, &registry);
    SimEngine engine(*sim.scheduler, servers, observed ? &events : nullptr);
    auto collect = [&ref](const CompletionRecord& r) {
      ref->completions.push_back(r);
    };
    for (const Request& r : slices[c]) {
      engine.advance_until(r.arrival, collect);
      engine.push_arrival(r);
    }
    engine.advance_until(kTimeMax, collect);
    ref->events.insert(ref->events.end(), events.events().begin(),
                       events.events().end());
    if (observed) ref->registry.fan_in(registry);
  }
  std::stable_sort(ref->completions.begin(), ref->completions.end(),
                   completion_before);
  std::stable_sort(ref->events.begin(), ref->events.end(),
                   canonical_event_before);
  return ref;
}

}  // namespace qos::fleet
