// The online-admit workload: the serving path of the paper's admission
// front-end.  16 preset tenants (WS/FT/OM in turn), one Miser
// online::Shaper per tenant, Cmin planned per tenant by
// plan_tenant_specs_parallel at f = 0.90, δ = 10 ms during setup.
//
// min(2, nproc) caller threads each own the tenants t with t mod callers ==
// their index, and replay those tenants in virtual time through admit /
// poll_dispatch / on_completion against a simulated constant-rate backend
// at Cmin + dC — a closed loop: each call is made as soon as the previous
// one returns.  Within one tenant the call order is replay_trace's
// (completions before arrivals at equal instants, one dispatch poll per
// instant), so decisions depend only on the inputs: Q1/Q2 counts are equal
// at any caller count, and the self-check compares them with replay_trace.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/shaper.h"
#include "decorators.h"
#include "online/replay.h"
#include "online/shaper.h"
#include "perfbench.h"
#include "runner/parallel_capacity.h"
#include "runner/thread_pool.h"
#include "sim/server.h"
#include "stream/gen_stream.h"
#include "trace/presets.h"
#include "util/clock.h"
#include "util/indexed_heap.h"

namespace perfbench {
namespace {

using namespace qos;
using online::Admit;
using online::Decision;
using online::DispatchCommand;
using online::Shaper;
using online::ShaperOptions;

constexpr int kTenants = 16;
constexpr Workload kPresets[3] = {Workload::kWebSearch, Workload::kFinTrans,
                                  Workload::kOpenMail};
/// admit() latency is timed on requests whose seq is a multiple of this.
constexpr std::uint64_t kLatencyEvery = 16;
/// Latency histogram range: 1 ns buckets up to this bound, clamped above.
constexpr std::size_t kLatencyBuckets = 1 << 17;

/// Each tenant replays the first N requests of its preset stream, so every
/// seed offers the same amount of work and memory.
std::size_t tenant_requests(bool small) { return small ? 2048 : 32768; }

Trace tenant_trace(Workload w, std::uint64_t seed, std::size_t n) {
  const auto source = stream::make_preset_stream(w, kPresetDuration, seed);
  std::vector<Request> requests;
  requests.reserve(n);
  while (requests.size() < n) {
    const std::optional<Request> r = source->next();
    if (!r) break;
    requests.push_back(*r);
  }
  return Trace(std::move(requests));
}

ShaperOptions shaper_options(double cmin, bool timed) {
  ShaperOptions o;
  o.shaping.policy = Policy::kMiser;
  o.shaping.delta = kDelta;
  o.cmin_iops = cmin;
  if (timed) {
    const ShapingConfig config = o.shaping;
    o.make_custom_scheduler = [config, cmin] {
      return std::make_unique<TimedScheduler>(make_scheduler(config, cmin),
                                              /*policy=miser*/ 0);
    };
  }
  return o;
}

void fold_decision(Fold& f, const Decision& d) {
  f.add(d.seq);
  f.add(static_cast<std::uint64_t>(d.admit) << 8 | (d.demoted ? 1u : 0u));
  f.add(static_cast<std::uint64_t>(d.deadline));
  f.add(static_cast<std::uint64_t>(d.depth));
  f.add(static_cast<std::uint64_t>(d.max_q1));
}

void fold_completion(Fold& f, const CompletionRecord& r) {
  f.add(r.seq);
  f.add(r.client);
  f.add(static_cast<std::uint64_t>(r.arrival));
  f.add(static_cast<std::uint64_t>(r.start));
  f.add(static_cast<std::uint64_t>(r.finish));
  f.add(static_cast<std::uint64_t>(r.klass) << 8 | r.server);
}

struct OnlineSetup {
  int callers = 1;
  std::vector<Trace> traces;
  std::vector<double> cmin;
  std::unique_ptr<ThreadPool> pool;
  std::uint64_t requests = 0;
  std::int64_t plan_ns = 0;
  std::uint64_t plan_allocs = 0;
};

OnlineSetup setup_online(std::uint64_t seed, int callers, bool small) {
  OnlineSetup s;
  s.callers = callers;
  for (int t = 0; t < kTenants; ++t) {
    s.traces.push_back(tenant_trace(
        kPresets[t % 3], derive_seed(seed, static_cast<std::uint64_t>(t)),
        tenant_requests(small)));
    s.requests += s.traces.back().size();
  }
  s.pool = std::make_unique<ThreadPool>(callers);
  const std::uint64_t allocs0 = all_allocs();
  const std::int64_t t0 = now_ns();
  const std::vector<TenantSpec> specs = plan_tenant_specs_parallel(
      *s.pool, s.traces, kFraction, kDelta, /*cache=*/nullptr);
  s.plan_ns = now_ns() - t0;
  s.plan_allocs = all_allocs() - allocs0;
  for (const TenantSpec& spec : specs) s.cmin.push_back(spec.cmin_iops);
  return s;
}

// Per-request outcome bits, checked at the end of each pass.
constexpr std::uint8_t kAdmittedQ1 = 1;
constexpr std::uint8_t kAdmittedQ2 = 2;
constexpr std::uint8_t kCompleted = 4;

/// One tenant's Shaper and simulated backend for one pass, stepped one
/// virtual instant at a time by its caller.
struct TenantRun {
  TenantRun(const Trace& t, double cmin, bool timed,
            std::vector<std::uint8_t>& outcome_buffer)
      : trace(&t),
        shaper(shaper_options(cmin, timed), clock),
        outcome(&outcome_buffer) {
    const double rate = cmin + shaper.options().shaping.resolved_headroom_iops();
    std::unique_ptr<Server> server = std::make_unique<ConstantRateServer>(rate);
    if (timed) server = std::make_unique<TimedServer>(std::move(server));
    servers.push_back(std::move(server));
    QOS_CHECK(shaper.server_count() == 1);
    slot.resize(servers.size());
    pending.reset(static_cast<int>(servers.size()));
    std::fill(outcome->begin(), outcome->end(), std::uint8_t{0});
  }

  Time next_event() const {
    const Time completion = pending.empty() ? kTimeMax : pending.top_key();
    const Time arrival =
        next < trace->size() ? (*trace)[next].arrival : kTimeMax;
    return std::min(completion, arrival);
  }

  void step(Time now, bool timed, std::vector<std::uint32_t>* latency) {
    clock.advance_to(now);
    while (!pending.empty() && pending.top_key() == now) {
      const int s = pending.pop();
      const CompletionRecord record = slot[static_cast<std::size_t>(s)];
      on_record(record);
      const Request r{.arrival = record.arrival,
                      .seq = record.seq,
                      .client = record.client};
      if (timed) {
        Scope scope(kShaperComplete);
        scope.set_seq(r.seq);
        shaper.on_completion(r, record.klass, s, now);
      } else {
        shaper.on_completion(r, record.klass, s, now);
      }
    }

    while (next < trace->size() && (*trace)[next].arrival == now) {
      const Request& r = (*trace)[next++];
      Decision d;
      if (timed) {
        Scope scope(kAdmit);
        scope.set_seq(r.seq);
        d = shaper.admit(r, now);
      } else if (latency != nullptr && r.seq % kLatencyEvery == 0) {
        const std::int64_t t0 = now_ns();
        d = shaper.admit(r, now);
        const auto ns = static_cast<std::size_t>(now_ns() - t0);
        ++(*latency)[std::min(ns, kLatencyBuckets - 1)];
      } else {
        d = shaper.admit(r, now);
      }
      on_decision(r, d);
    }

    std::vector<DispatchCommand> commands;
    if (timed) {
      Scope scope(kPoll);
      commands = shaper.poll_dispatch(now);
      if (!commands.empty()) scope.hit();
    } else {
      commands = shaper.poll_dispatch(now);
    }
    for (const DispatchCommand& cmd : commands) {
      const auto s = static_cast<std::size_t>(cmd.server);
      const Time dur = servers[s]->service_duration(cmd.request, now);
      QOS_CHECK(dur > 0);
      slot[s] = CompletionRecord{.seq = cmd.request.seq,
                                 .client = cmd.request.client,
                                 .arrival = cmd.request.arrival,
                                 .start = now,
                                 .finish = now + dur,
                                 .klass = cmd.klass,
                                 .server = static_cast<std::uint8_t>(s)};
      pending.push(cmd.server, now + dur);
    }
  }

  void on_decision(const Request& r, const Decision& d) {
    fold_decision(decisions, d);
    if (d.seq != r.seq || r.seq >= outcome->size() ||
        d.admit == Admit::kShed) {
      ++failed;
      return;
    }
    if (d.admit == Admit::kQ1) {
      ++q1;
      (*outcome)[r.seq] = kAdmittedQ1;
    } else {
      ++q2;
      (*outcome)[r.seq] = kAdmittedQ2;
    }
  }

  void on_record(const CompletionRecord& r) {
    fold_completion(completions, r);
    const std::uint8_t want =
        r.klass == ServiceClass::kPrimary ? kAdmittedQ1 : kAdmittedQ2;
    if (r.seq >= outcome->size() || (*outcome)[r.seq] != want ||
        r.start < r.arrival || r.finish <= r.start) {
      ++failed;  // duplicated, unadmitted, reclassified or out of contract
      return;
    }
    (*outcome)[r.seq] |= kCompleted;
    const Time response = r.finish - r.arrival;
    if (r.klass == ServiceClass::kPrimary && response > kDelta) ++q1_miss;
    if (response <= kDelta) ++within;
  }

  /// Requests that never completed.
  std::uint64_t lost() const {
    return static_cast<std::uint64_t>(
        std::count_if(outcome->begin(), outcome->end(),
                      [](std::uint8_t o) { return (o & kCompleted) == 0; }));
  }

  const Trace* trace;
  VirtualClock clock;
  Shaper shaper;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<CompletionRecord> slot;
  IndexedMinHeap<Time> pending;
  std::size_t next = 0;
  std::vector<std::uint8_t>* outcome;

  Fold decisions;
  Fold completions;
  std::uint64_t q1 = 0, q2 = 0, q1_miss = 0, within = 0, failed = 0;
};

struct PassOut {
  double wall_s = 0;
  /// Per caller: its decisions / its own elapsed time.
  std::vector<double> caller_mdps;
  /// Per caller: reference_ns() before and after its share, averaged.
  std::vector<double> caller_ref_ns;
  std::uint64_t q1 = 0, q2 = 0, q1_miss = 0, within = 0, failed = 0;
  std::vector<std::uint64_t> decision_digest;    ///< per tenant
  std::vector<std::uint64_t> completion_digest;  ///< per tenant
};

class OnlineRunner {
 public:
  explicit OnlineRunner(const OnlineSetup& s) : s_(s) {
    for (const Trace& t : s.traces) outcomes_.emplace_back(t.size(), 0);
    latency_.assign(static_cast<std::size_t>(s.callers),
                    std::vector<std::uint32_t>(kLatencyBuckets, 0));
  }

  /// One pass over every tenant with `callers` caller threads (at most the
  /// setup's pool size).  `sample_latency` times the fixed admit() subset.
  PassOut pass(int callers, bool timed, bool sample_latency) {
    std::vector<std::unique_ptr<TenantRun>> runs;
    for (std::size_t t = 0; t < s_.traces.size(); ++t)
      runs.push_back(std::make_unique<TenantRun>(s_.traces[t], s_.cmin[t],
                                                 timed, outcomes_[t]));
    std::vector<double> caller_mdps(static_cast<std::size_t>(callers), 0);
    std::vector<double> caller_ref_ns(static_cast<std::size_t>(callers), 0);
    const std::int64_t t0 = now_ns();
    s_.pool->parallel_for(
        static_cast<std::size_t>(callers), [&](std::size_t c) {
          const std::int64_t r0 = timed ? 0 : reference_ns();
          const std::int64_t c0 = now_ns();
          std::uint64_t decisions = 0;
          std::vector<TenantRun*> mine;
          for (std::size_t t = c; t < runs.size();
               t += static_cast<std::size_t>(callers))
            mine.push_back(runs[t].get());
          std::vector<std::uint32_t>* latency =
              sample_latency ? &latency_[c] : nullptr;
          while (true) {
            TenantRun* due = nullptr;
            Time when = kTimeMax;
            for (TenantRun* run : mine) {
              const Time t = run->next_event();
              if (t < when) {
                when = t;
                due = run;
              }
            }
            if (due == nullptr) break;
            due->step(when, timed, latency);
          }
          for (const TenantRun* run : mine) decisions += run->trace->size();
          caller_mdps[c] = static_cast<double>(decisions) /
                           static_cast<double>(now_ns() - c0) * 1e3;
          if (!timed)
            caller_ref_ns[c] = 0.5 * static_cast<double>(r0 + reference_ns());
        });
    PassOut out;
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.caller_mdps = std::move(caller_mdps);
    out.caller_ref_ns = std::move(caller_ref_ns);
    for (const auto& run : runs) {
      out.q1 += run->q1;
      out.q2 += run->q2;
      out.q1_miss += run->q1_miss;
      out.within += run->within;
      out.failed += run->failed + run->lost();
      out.decision_digest.push_back(run->decisions.h);
      out.completion_digest.push_back(run->completions.h);
    }
    return out;
  }

  /// p-quantile of every sampled admit() latency so far, and the count.
  double latency_quantile(double p, std::uint64_t& samples) const {
    std::vector<std::uint64_t> merged(kLatencyBuckets, 0);
    samples = 0;
    for (const auto& h : latency_)
      for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
        merged[i] += h[i];
        samples += h[i];
      }
    const auto rank = static_cast<std::uint64_t>(
        p * static_cast<double>(samples > 0 ? samples - 1 : 0));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kLatencyBuckets; ++i) {
      seen += merged[i];
      if (seen > rank) return static_cast<double>(i);
    }
    return 0;
  }

 private:
  const OnlineSetup& s_;
  std::vector<std::vector<std::uint8_t>> outcomes_;
  std::vector<std::vector<std::uint32_t>> latency_;
};

void verify_pass(const OnlineSetup& s, const PassOut& p, const PassOut& first,
                 Report& report) {
  if (p.decision_digest != first.decision_digest ||
      p.completion_digest != first.completion_digest)
    report.fail("decision or completion digests differ between passes");
  if (p.q1 != first.q1 || p.q2 != first.q2)
    report.fail("Q1/Q2 counts differ between passes");
  report.attempted += s.requests;
  report.failed += p.failed;
}

void add_layer_metrics(const OnlineSetup& s, const Totals& t,
                       const std::vector<PassOut>& traced, double untraced_wall,
                       Report& r) {
  auto& L = r.layers;
  const double passes = static_cast<double>(traced.size());
  const double reqs = static_cast<double>(s.requests);
  auto per_call = [](const Acc& a, double ns) {
    return a.calls > 0 ? ns / static_cast<double>(a.calls) : 0.0;
  };
  auto per_req = [&](std::uint64_t n) {
    return static_cast<double>(n) / passes / reqs;
  };
  double wall = 0;
  std::vector<double> walls;
  for (const PassOut& p : traced) {
    wall += p.wall_s;
    walls.push_back(p.wall_s);
  }
  wall /= passes;

  const Acc& arrival = t[kArrival];
  const Acc& next_for = t[kNextFor];
  const Acc& complete = t[kComplete];
  L["sched.miser.arrival_ns"] =
      per_call(arrival, static_cast<double>(arrival.total_ns));
  L["sched.miser.next_for_ns"] =
      per_call(next_for, static_cast<double>(next_for.total_ns));
  L["sched.miser.complete_ns"] =
      per_call(complete, static_cast<double>(complete.total_ns));
  L["sched.miser.next_for_calls"] =
      static_cast<double>(next_for.calls) / passes;
  L["sched.miser.next_for_hit"] =
      next_for.calls > 0 ? static_cast<double>(next_for.hits) /
                               static_cast<double>(next_for.calls)
                         : 0.0;
  const Acc& server = t[kServer];
  L["server.calls"] = static_cast<double>(server.calls) / passes;
  L["server.service_ns"] =
      per_call(server, static_cast<double>(server.total_ns));

  const Acc& admit = t[kAdmit];
  const Acc& poll = t[kPoll];
  const Acc& done = t[kShaperComplete];
  L["shaper.admit_ns"] = per_call(admit, static_cast<double>(admit.total_ns));
  L["shaper.admit_self_ns"] =
      per_call(admit, static_cast<double>(admit.total_ns) -
                          static_cast<double>(arrival.total_ns));
  L["shaper.poll_ns"] = per_call(poll, static_cast<double>(poll.total_ns));
  L["shaper.poll_empty_frac"] =
      poll.calls > 0 ? 1.0 - static_cast<double>(poll.hits) /
                                 static_cast<double>(poll.calls)
                     : 0.0;
  L["shaper.complete_ns"] = per_call(done, static_cast<double>(done.total_ns));

  // The planner's probe count is exact: re-run each tenant's search (the
  // same deterministic min_capacity plan_tenant_specs_parallel runs) and
  // check it lands on the planned Cmin.
  std::uint64_t probes = 0, probe_requests = 0;
  for (std::size_t i = 0; i < s.traces.size(); ++i) {
    const CapacityResult c = min_capacity(s.traces[i], kFraction, kDelta);
    if (c.cmin_iops != s.cmin[i])
      r.fail("planner Cmin differs from a serial min_capacity search");
    probes += static_cast<std::uint64_t>(c.probes);
    probe_requests += static_cast<std::uint64_t>(c.probes) * s.traces[i].size();
  }
  L["plan.s"] = static_cast<double>(s.plan_ns) / 1e9;
  L["plan.probes"] = static_cast<double>(probes);
  // Wall time across the planner's threads, per request one probe scans.
  L["plan.ns_per_probe_req"] = static_cast<double>(s.plan_ns) *
                               static_cast<double>(s.callers) /
                               static_cast<double>(probe_requests);
  L["alloc.plan_per_req"] = static_cast<double>(s.plan_allocs) / reqs;

  L["alloc.shaper_per_req"] =
      per_req(admit.self_allocs + poll.self_allocs + done.self_allocs);
  L["alloc.sched_per_req"] = per_req(arrival.self_allocs + next_for.self_allocs +
                                     complete.self_allocs);
  L["alloc.server_per_req"] = per_req(server.self_allocs);

  const double lanes =
      static_cast<double>(arrival.total_ns + next_for.total_ns +
                          complete.total_ns + server.total_ns) /
      1e9 / passes;
  L["share.lanes"] = lanes / (static_cast<double>(s.callers) * wall);
  L["traced.wall_s"] = wall;
  L["trace_overhead"] = median(walls) / untraced_wall - 1.0;
}

/// Folds a replay_trace outcome exactly as TenantRun folds a live run.
void fold_replay(const online::ReplayOutcome& out, std::uint64_t& decisions,
                 std::uint64_t& completions) {
  Fold d, c;
  for (const Decision& x : out.decisions) fold_decision(d, x);
  for (const CompletionRecord& x : out.sim.completions) fold_completion(c, x);
  decisions = d.h;
  completions = c.h;
}

}  // namespace

Report run_online(const Options& o) {
  Report report;
  const int callers = online_callers(o.nproc);

  // Set-up plans on the callers' pool, so the reference runs on as many.
  OnlineSetup setup;
  std::vector<double> setup_s = {reference_seconds(callers, [&] {
    setup = setup_online(o.seed, callers, /*small=*/false);
  })};
  auto time_setup = [&] {
    setup_s.push_back(reference_seconds(callers, [&] {
      (void)setup_online(o.seed, callers, /*small=*/false);
    }));
  };
  report.params = {"tenants=" + std::to_string(kTenants),
                   "tenant_requests=" + std::to_string(tenant_requests(false)),
                   "requests_per_pass=" + std::to_string(setup.requests),
                   "callers=" + std::to_string(callers),
                   "policy=Miser", "latency_every=" + std::to_string(kLatencyEvery)};

  OnlineRunner runner(setup);
  std::vector<PassOut> untraced, traced;
  double measured = 0;
  auto timed_pass = [&](std::vector<PassOut>& into, bool timed,
                        bool sample_latency) {
    const std::int64_t p0 = now_ns();
    into.push_back(runner.pass(callers, timed, sample_latency));
    measured += static_cast<double>(now_ns() - p0) / 1e9;
  };
  double rss_mib = 0;
  if (!o.trace) {
    do {
      timed_pass(untraced, false, true);
      if (untraced.size() == 1) rss_mib = peak_rss_mib();
      if (setup_due(setup_s.size(), measured, o.seconds)) time_setup();
    } while (measured < o.seconds);
    while (setup_s.size() < kSetups) time_setup();
  } else {
    set_span_sampling(0);
    collect_and_reset();
    do {
      timed_pass(untraced, false, false);
      set_span_sampling(traced.empty() ? 256 : 0);  // spans: first pass
      timed_pass(traced, true, false);
    } while (measured < o.seconds);
  }

  const PassOut& first = untraced.front();
  std::vector<double> walls;
  std::vector<std::vector<double>> caller_mdps(
      static_cast<std::size_t>(callers));
  std::vector<std::vector<double>> caller_ref_mdps(caller_mdps.size());
  std::vector<double> ref_ns;
  for (const PassOut& p : untraced) {
    verify_pass(setup, p, first, report);
    for (std::size_t c = 0; c < caller_mdps.size(); ++c) {
      caller_mdps[c].push_back(p.caller_mdps[c]);
      caller_ref_mdps[c].push_back(
          reference_rate(p.caller_mdps[c], p.caller_ref_ns[c]));
      ref_ns.push_back(p.caller_ref_ns[c]);
    }
    walls.push_back(p.wall_s);
  }
  // Decisions per second summed over the callers.  Callers share nothing
  // and each runs on its own core, so each caller's rate is scaled by the
  // reference work run on its own thread, and its median taken.
  double mdps = 0, ref_mdps = 0;
  for (std::size_t c = 0; c < caller_mdps.size(); ++c) {
    mdps += median(caller_mdps[c]);
    ref_mdps += median(caller_ref_mdps[c]);
  }
  for (const PassOut& p : traced) verify_pass(setup, p, first, report);

  if (!o.trace) {
    const double q1_miss =
        first.q1 > 0 ? static_cast<double>(first.q1_miss) /
                           static_cast<double>(first.q1)
                     : 0.0;
    report.metric("throughput_ref_mops", ref_mdps, "Mops/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", rss_mib, "MiB");
    report.metric("within_delta_frac",
                  static_cast<double>(first.within) /
                      static_cast<double>(setup.requests),
                  "ratio");
    report.metric("q1_met_frac", 1.0 - q1_miss, "ratio");
    std::uint64_t samples = 0;
    const double p50 = runner.latency_quantile(0.50, samples);
    const double p99 = runner.latency_quantile(0.99, samples);
    report.note("admit_mdps", mdps, "M_decisions/s");
    report.note("reference_ns", median(ref_ns), "ns");
    report.note("admit_p50_ns", p50, "ns");
    report.note("admit_p99_ns", p99, "ns");
    report.note("admit_latency_samples", static_cast<double>(samples), "count");
    report.note("q1_miss_frac", q1_miss, "ratio");
    report.note("q1_admits", static_cast<double>(first.q1), "count");
    report.note("q2_admits", static_cast<double>(first.q2), "count");
    report.note("passes", static_cast<double>(untraced.size()), "count");
  } else {
    add_layer_metrics(setup, collect_and_reset(), traced, median(walls),
                      report);
    report.note("traced_passes", static_cast<double>(traced.size()), "count");
  }
  return report;
}

bool check_online(std::uint64_t seed, int nproc,
                  std::vector<std::string>& log) {
  const int callers = online_callers(nproc);
  const OnlineSetup setup = setup_online(seed, callers, /*small=*/true);
  OnlineRunner runner(setup);
  const PassOut one = runner.pass(1, false, false);
  const PassOut many = runner.pass(callers, false, false);
  const PassOut traced = runner.pass(callers, true, false);
  collect_and_reset();

  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    log.push_back(std::string(cond ? "ok   " : "FAIL ") + "online-admit: " +
                  what);
    ok = ok && cond;
  };
  expect(one.failed == 0 && many.failed == 0 && traced.failed == 0,
         "every request gets one decision and one completion (" +
             std::to_string(setup.requests) + " requests)");
  expect(one.decision_digest == many.decision_digest &&
             one.completion_digest == many.completion_digest &&
             one.q1 == many.q1 && one.q2 == many.q2,
         "per-tenant digests and Q1/Q2 counts at 1 caller == " +
             std::to_string(callers) + " callers (Q1 " +
             std::to_string(one.q1) + ", Q2 " + std::to_string(one.q2) + ")");
  expect(many.decision_digest == traced.decision_digest &&
             many.completion_digest == traced.completion_digest,
         "per-tenant digests untraced == traced");
  bool replay_equal = true;
  for (std::size_t t = 0; t < setup.traces.size(); ++t) {
    std::uint64_t d = 0, c = 0;
    fold_replay(online::replay_trace(setup.traces[t],
                                     shaper_options(setup.cmin[t], false)),
                d, c);
    replay_equal = replay_equal && d == one.decision_digest[t] &&
                   c == one.completion_digest[t];
  }
  expect(replay_equal, "per-tenant digests == replay_trace's");
  return ok;
}

}  // namespace perfbench
