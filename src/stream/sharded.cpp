#include "stream/sharded.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/sharded_sink.h"
#include "runner/thread_pool.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/window_order.h"

namespace qos::stream {
namespace {

struct Lane {
  std::uint32_t tenant = 0;
  TenantSim sim;
  std::vector<Server*> servers;  ///< raw views for the engine
  std::unique_ptr<SimEngine> engine;
  std::unique_ptr<MetricRegistry> registry;   ///< private metric shard
  std::vector<Request> inbox;                 ///< this window's arrivals
  std::vector<CompletionRecord> window_out;   ///< this window's completions
};

/// Work a barrier window carries: feeding stops at the first lookahead edge
/// after this many arrivals per lane, and the width grows while windows
/// retire fewer events than that.  Large enough that one fork-join plus one
/// drain handoff is small next to the lane work it covers.
constexpr std::uint64_t kArrivalsPerLane = 32;

/// Cap on a window's width, in lookahead slices.  Reached in drain tails,
/// where only completions remain and every lane's service rate is fixed.
constexpr Time kMaxWidth = 1024;

/// End of the `slices`-slice span of the lookahead grid that starts at the
/// slice holding `t`; kTimeMax when that edge would overflow.
Time grid_edge(Time t, Time delta, Time slices) {
  const Time start = t - t % delta;
  return (kTimeMax - start) / delta < slices ? kTimeMax
                                             : start + slices * delta;
}

}  // namespace

ShardedStats simulate_sharded(
    RequestStream& requests, const TenantFactory& factory,
    const ShardedOptions& options,
    const std::function<void(const CompletionRecord&)>& out) {
  QOS_EXPECTS(options.shards >= 1);
  QOS_EXPECTS(options.lookahead > 0);

  ThreadPool pool(options.shards);
  std::vector<std::unique_ptr<Lane>> lanes;  ///< kept sorted by tenant id
  std::unordered_map<std::uint32_t, Lane*> by_tenant;

  // Per-lane buffered sinks, canonically merged to options.sink at every
  // barrier flush (obs/sharded_sink.h).  Lane buffers are each written by
  // exactly one worker per window and only touched by the coordinator
  // between windows, so no event crosses threads unsynchronized.
  std::optional<ShardedEventSink> event_merge;
  if (options.sink != nullptr)
    event_merge.emplace(options.sink, options.overlap_drain);

  auto lane_for = [&](std::uint32_t tenant) -> Lane& {
    if (auto it = by_tenant.find(tenant); it != by_tenant.end())
      return *it->second;
    auto lane = std::make_unique<Lane>();
    lane->tenant = tenant;
    lane->sim = factory(tenant);
    QOS_CHECK(lane->sim.scheduler != nullptr);
    QOS_CHECK(static_cast<int>(lane->sim.servers.size()) ==
              lane->sim.scheduler->server_count());
    for (auto& s : lane->sim.servers) {
      QOS_CHECK(s != nullptr);
      lane->servers.push_back(s.get());
    }
    EventSink* lane_sink =
        event_merge ? event_merge->lane(tenant) : nullptr;
    if (options.registry != nullptr)
      lane->registry = std::make_unique<MetricRegistry>();
    if (lane_sink != nullptr || lane->registry != nullptr)
      lane->sim.scheduler->attach_observability(lane_sink,
                                                lane->registry.get());
    lane->engine = std::make_unique<SimEngine>(*lane->sim.scheduler,
                                               lane->servers, lane_sink);
    Lane& ref = *lane;
    by_tenant.emplace(tenant, &ref);
    lanes.insert(std::lower_bound(lanes.begin(), lanes.end(), tenant,
                                  [](const std::unique_ptr<Lane>& l,
                                     std::uint32_t t) { return l->tenant < t; }),
                 std::move(lane));
    return ref;
  };

  // The stream contract is validated at the coordinator — lanes then only
  // ever see per-tenant subsequences of an already-checked stream.
  std::uint64_t expected_seq = 0;
  Time prev_arrival = 0;
  auto validate = [&](const Request& r) {
    QOS_CHECK(request_record_ok(r));
    QOS_CHECK(r.seq == expected_seq);
    QOS_CHECK(r.arrival >= prev_arrival);
    ++expected_seq;
    prev_arrival = r.arrival;
  };

  ShardedStats stats;
  const Time delta = options.lookahead;
  std::optional<Request> peek = requests.next();
  if (peek) validate(*peek);
  WindowOrder<CompletionRecord, &CompletionRecord::finish, merged_before>
      completion_order;
  Time width = 1;  ///< next window's span, in lookahead slices

  while (true) {
    // Realign the window to the next event anywhere — buffered stream head
    // or any lane's pending arrival/completion — so empty virtual time
    // costs nothing.
    Time next_event = peek ? peek->arrival : kTimeMax;
    for (const auto& lane : lanes)
      next_event = std::min(next_event, lane->engine->next_event_time());
    if (next_event == kTimeMax) break;
    const Time full = grid_edge(next_event, delta, width);
    Time limit = full;

    // Feed: every arrival before the edge goes to its tenant's inbox.  Once
    // the arrival target is met, the edge moves in to the end of the slice
    // holding the latest arrival, so the window still ends on the grid.
    std::uint64_t fed = 0;
    while (peek && peek->arrival < limit) {
      const Time arrival = peek->arrival;
      lane_for(peek->client).inbox.push_back(*peek);
      if (++fed >= kArrivalsPerLane * lanes.size())
        limit = grid_edge(arrival, delta, 1);
      peek = requests.next();
      if (peek) validate(*peek);
    }

    // Barrier step: all lanes advance to the window edge in parallel.  A
    // lane's evolution is a pure function of its inbox and prior state;
    // the pool only chooses which worker runs it.
    pool.parallel_for(lanes.size(), [&lanes, limit](std::size_t i) {
      Lane& lane = *lanes[i];
      auto collect = [&lane](const CompletionRecord& record) {
        lane.window_out.push_back(record);
      };
      for (const Request& r : lane.inbox) {
        lane.engine->advance_until(r.arrival, collect);
        lane.engine->push_arrival(r);
      }
      lane.inbox.clear();
      lane.engine->advance_until(limit, collect);
    });

    // Event flush first: the window's events re-serialize into the canonical
    // (time, seq, server) order on the coordinator.  Windows tile virtual
    // time, so per-window flushes concatenate into one globally ordered
    // stream — identical to what a 1-shard run hands the same sink.
    if (event_merge) event_merge->flush();

    // Canonical merge: the order std::stable_sort on (finish, seq, server)
    // gives the tenant-ascending concatenation (util/window_order.h).  Every
    // finish in this window precedes every finish of later windows, so
    // per-window emission is globally sorted.
    completion_order.clear();
    for (const auto& lane : lanes) completion_order.append(lane->window_out);
    const std::span<const CompletionRecord* const> ordered =
        completion_order.sort();
    for (const CompletionRecord* record : ordered) {
      stats.makespan = std::max(stats.makespan, record->finish);
      out(*record);
    }
    for (auto& lane : lanes) lane->window_out.clear();
    ++stats.windows;

    // Size the next window from this one's work.  Every count read here is
    // a function of the input alone, so windows are shard-independent.
    if (limit < full)
      width = std::max<Time>(1, width / 2);
    else if (fed + ordered.size() < kArrivalsPerLane * lanes.size())
      width = std::min(kMaxWidth, width * 2);
  }

  for (const auto& lane : lanes) {
    QOS_ENSURES(lane->engine->drained());
    stats.requests += lane->engine->arrivals_delivered();
    stats.dispatches += lane->engine->dispatches();
    stats.completions += lane->engine->completions();
  }
  stats.tenants = lanes.size();
  if (event_merge) {
    event_merge->finish();  // drain handed-off windows, join the drain thread
    stats.events_forwarded = event_merge->forwarded();
    stats.event_digest = event_merge->digest();
  }

  // Metric fan-in after the run, in tenant-ascending order: integer metric
  // arithmetic is exact, and occupancy integrals are doubles whose fixed
  // fold order makes the global snapshot bit-identical across shard counts.
  if (options.registry != nullptr)
    for (const auto& lane : lanes) options.registry->fan_in(*lane->registry);

  return stats;
}

SimResult simulate_sharded(RequestStream& requests,
                           const TenantFactory& factory,
                           const ShardedOptions& options) {
  SimResult result;
  simulate_sharded(requests, factory, options,
                   [&result](const CompletionRecord& record) {
                     result.completions.push_back(record);
                   });
  return result;
}

}  // namespace qos::stream
