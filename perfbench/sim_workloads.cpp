// The offline-simulation workloads, sim-steady and sim-bursty: a merged
// multi-tenant request stream through stream::simulate_sharded, one
// Scheduler + Server lane per tenant.
//
//   sim-steady  4 Poisson tenants, shards = 1, no event sink.  Shallow
//               queues, few sources, no barrier wait and no observability:
//               the engine, schedulers and server model do nearly all the
//               work, so this is the control workload for every stream,
//               shard, obs or online change.
//   sim-bursty  64 tenants cycling the WS/FT/OM preset streams, each lane
//               provisioned at its preset's Cmin(0.90, 10 ms) + dC, shards =
//               nproc - 1 with the overlap-drain thread, and a Tracer
//               streaming QOSTRC02 into a byte-counting sink.  Exercises the
//               64-way stream merge, many barrier windows, the observability
//               merge and deep Q1/Q2 queues during bursts.
//
// Lanes cycle Miser / Split / FairQueue / FCFS by tenant index.
#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/capacity.h"
#include "core/shaper.h"
#include "decorators.h"
#include "obs/trace.h"
#include "obs/trace_stream.h"
#include "perfbench.h"
#include "sim/server.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "trace/presets.h"

namespace perfbench {
namespace {

using namespace qos;

constexpr Policy kPolicyCycle[kPolicies] = {Policy::kMiser, Policy::kSplit,
                                            Policy::kFairQueue, Policy::kFcfs};
constexpr Workload kPresets[3] = {Workload::kWebSearch, Workload::kFinTrans,
                                  Workload::kOpenMail};

struct SimShape {
  bool bursty = false;
  int tenants = 0;
  Time duration = 0;         ///< per-tenant virtual time of one pass
  double steady_rate = 0;    ///< sim-steady: Poisson IOPS per tenant
};

SimShape shape_for(bool bursty, bool small) {
  if (bursty)
    return {.bursty = true, .tenants = 64,
            .duration = from_sec(small ? 2 : 30)};
  return {.bursty = false, .tenants = 4,
          .duration = from_sec(small ? 5 : 250), .steady_rate = 1000};
}

/// Length of the one sample per preset that sim-bursty plans Cmin on: the
/// preset's full evaluation hour, so the plan (and with it every lane's
/// queue depth) does not hinge on whether a short sample caught a burst.
constexpr Time kPlanSample = from_sec(600);

/// Everything fixed before the first timed pass.
struct SimSetup {
  SimShape shape;
  std::vector<std::uint64_t> tenant_seeds;
  double preset_cmin[3] = {};   ///< sim-bursty: planned Cmin per preset
  // Planning cost (sim-bursty), for the traced run's plan.* figures.
  std::int64_t plan_ns = 0;
  std::uint64_t plan_allocs = 0;
  std::uint64_t plan_probes = 0;
  std::uint64_t plan_probe_requests = 0;  ///< Σ probes × sample size
  std::uint64_t plan_requests = 0;
  /// Requests in the merged input: every pass must complete each once.
  std::uint64_t requests = 0;
};

std::vector<std::unique_ptr<stream::RequestStream>> make_sources(
    const SimSetup& s, bool timed) {
  std::vector<std::unique_ptr<stream::RequestStream>> sources;
  for (int t = 0; t < s.shape.tenants; ++t) {
    const std::uint64_t seed = s.tenant_seeds[static_cast<std::size_t>(t)];
    std::unique_ptr<stream::RequestStream> src =
        s.shape.bursty
            ? stream::make_preset_stream(kPresets[t % 3], s.shape.duration,
                                         seed)
            : stream::make_poisson_stream(s.shape.steady_rate,
                                          s.shape.duration, seed);
    if (timed) src = std::make_unique<TimedStream>(std::move(src), kGen);
    sources.push_back(std::move(src));
  }
  return sources;
}

SimSetup setup_sim(const SimShape& shape, std::uint64_t seed) {
  SimSetup s;
  s.shape = shape;
  for (int t = 0; t < shape.tenants; ++t)
    s.tenant_seeds.push_back(derive_seed(seed, static_cast<std::uint64_t>(t)));

  if (shape.bursty) {
    for (int w = 0; w < 3; ++w) {
      const Trace sample = preset_trace(kPresets[w], kPlanSample);
      const std::uint64_t allocs0 = thread_allocs();
      const std::int64_t t0 = now_ns();
      const CapacityResult plan = min_capacity(sample, kFraction, kDelta);
      s.plan_ns += now_ns() - t0;
      s.plan_allocs += thread_allocs() - allocs0;
      s.preset_cmin[w] = plan.cmin_iops;
      s.plan_probes += static_cast<std::uint64_t>(plan.probes);
      s.plan_probe_requests +=
          static_cast<std::uint64_t>(plan.probes) * sample.size();
      s.plan_requests += sample.size();
    }
  }

  stream::MergedStream merged(make_sources(s, false));
  while (merged.next()) ++s.requests;
  return s;
}

stream::TenantSim build_lane(const SimSetup& s, std::uint32_t client,
                             bool timed) {
  const int policy = static_cast<int>(client % kPolicies);
  ShapingConfig config;
  config.policy = kPolicyCycle[policy];
  config.delta = kDelta;
  double cmin = 0;
  if (s.shape.bursty) {
    cmin = s.preset_cmin[client % 3];
  } else {
    cmin = 1.5 * s.shape.steady_rate;
    config.headroom_override_iops = 0.25 * s.shape.steady_rate;
  }
  const double headroom = config.resolved_headroom_iops();

  // Server construction as shape_and_run does it: Split gets a dedicated
  // primary at Cmin plus an overflow server at dC, the shared-server
  // policies one server at Cmin + dC.
  stream::TenantSim sim;
  sim.scheduler = make_scheduler(config, cmin);
  std::vector<double> rates;
  if (sim.scheduler->server_count() == 2)
    rates = {cmin, headroom};
  else
    rates = {cmin + headroom};
  for (double rate : rates) {
    std::unique_ptr<Server> server = std::make_unique<ConstantRateServer>(rate);
    if (timed) server = std::make_unique<TimedServer>(std::move(server));
    sim.servers.push_back(std::move(server));
  }
  if (timed)
    sim.scheduler =
        std::make_unique<TimedScheduler>(std::move(sim.scheduler), policy);
  return sim;
}

/// Discards trace bytes, counting them.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

struct PassOut {
  double wall_s = 0;
  stream::ShardedStats stats;
  std::uint64_t completion_digest = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t failed = 0;
  std::uint64_t q1 = 0;
  std::uint64_t q1_miss = 0;
  std::uint64_t within = 0;
  // Traced passes only.
  std::int64_t barrier_ns = 0;
  std::uint64_t coordinator_allocs = 0;
};

/// Runs passes over one setup.  The per-request bookkeeping buffer is
/// reused, so memory does not grow with the number of passes.
class SimRunner {
 public:
  explicit SimRunner(const SimSetup& setup)
      : s_(setup), seen_(setup.requests, 0) {}

  PassOut pass(int shards, bool timed) {
    std::fill(seen_.begin(), seen_.end(), std::uint8_t{0});
    PassOut out;
    Fold completions;
    auto check = [&](const CompletionRecord& r) {
      completions.add(r.seq);
      completions.add(r.client);
      completions.add(static_cast<std::uint64_t>(r.arrival));
      completions.add(static_cast<std::uint64_t>(r.start));
      completions.add(static_cast<std::uint64_t>(r.finish));
      completions.add(static_cast<std::uint64_t>(r.klass) << 8 | r.server);
      if (r.seq >= seen_.size() || seen_[r.seq] != 0) {
        ++out.failed;  // unknown or duplicated request
        return;
      }
      seen_[r.seq] = 1;
      if (r.start < r.arrival || r.finish <= r.start ||
          r.client >= static_cast<std::uint32_t>(s_.shape.tenants) ||
          r.server > 1) {
        ++out.failed;  // record out of contract
        return;
      }
      const Time response = r.finish - r.arrival;
      if (r.klass == ServiceClass::kPrimary) {
        ++out.q1;
        if (response > kDelta) ++out.q1_miss;
      }
      if (response <= kDelta) ++out.within;
    };

    // Traced passes time the completion callback and measure the barrier:
    // coordinator time from a window's last stream pull to its first
    // emitted completion.
    std::int64_t last_pull_end = 0;
    std::int64_t consumed_pull_end = 0;
    std::function<void(const CompletionRecord&)> emit;
    if (timed) {
      emit = [&](const CompletionRecord& r) {
        const std::int64_t entry = now_ns();
        if (last_pull_end != consumed_pull_end) {
          out.barrier_ns += entry - last_pull_end;
          consumed_pull_end = last_pull_end;
        }
        Scope scope(kEmit);
        scope.set_seq(r.seq);
        check(r);
      };
    } else {
      emit = check;
    }

    std::unique_ptr<stream::RequestStream> input =
        std::make_unique<stream::MergedStream>(make_sources(s_, timed));
    if (timed)
      input = std::make_unique<TimedStream>(std::move(input), kPull,
                                            &last_pull_end);
    auto factory = [this, timed](std::uint32_t client) {
      return build_lane(s_, client, timed);
    };

    stream::ShardedOptions options{.shards = shards, .lookahead = kDelta};
    CountingBuf trace_bytes;
    std::ostream trace_out(&trace_bytes);
    Tracer tracer(TracerConfig{.sample_every = 1});
    std::unique_ptr<ChunkedTraceWriter> writer;
    std::unique_ptr<TimedSink> timed_sink;
    if (s_.shape.bursty) {
      tracer.annotate("perfbench", "sim-bursty", kDelta);
      writer = std::make_unique<ChunkedTraceWriter>(
          trace_out, StreamTraceMeta{"perfbench", "sim-bursty", kDelta, 1});
      tracer.set_span_sink(writer.get());
      options.sink = &tracer;
      if (timed) {
        timed_sink = std::make_unique<TimedSink>(tracer);
        options.sink = timed_sink.get();
      }
    }

    const std::uint64_t allocs0 = thread_allocs();
    const std::int64_t t0 = now_ns();
    out.stats = stream::simulate_sharded(*input, factory, options, emit);
    out.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.coordinator_allocs = thread_allocs() - allocs0;
    if (writer) {
      writer->finish(tracer.observed(), tracer.dropped());
      out.trace_bytes = trace_bytes.bytes;
    }

    out.completion_digest = completions.h;
    out.failed += static_cast<std::uint64_t>(
        std::count(seen_.begin(), seen_.end(), std::uint8_t{0}));  // lost
    return out;
  }

 private:
  const SimSetup& s_;
  std::vector<std::uint8_t> seen_;
};

/// Checks one pass against the setup and the first pass of the run.
void verify_pass(const SimSetup& s, const PassOut& p, const PassOut& first,
                 Report& report) {
  if (p.stats.requests != s.requests || p.stats.completions != s.requests)
    report.fail("pass consumed " + std::to_string(p.stats.requests) +
                " requests and completed " +
                std::to_string(p.stats.completions) + ", expected " +
                std::to_string(s.requests));
  if (p.completion_digest != first.completion_digest)
    report.fail("completion digest differs between passes of one input");
  if (s.shape.bursty && (p.stats.event_digest.hi != first.stats.event_digest.hi ||
                         p.stats.event_digest.lo != first.stats.event_digest.lo))
    report.fail("event digest differs between passes of one input");
  report.attempted += s.requests;
  report.failed += p.failed;
}

void add_outcome_metrics(const SimSetup& s, const PassOut& p, Report& r) {
  const double q1 = static_cast<double>(p.q1);
  const double q1_miss = p.q1 > 0 ? static_cast<double>(p.q1_miss) / q1 : 0;
  r.metric("within_delta_frac",
           static_cast<double>(p.within) / static_cast<double>(s.requests),
           "ratio");
  r.metric("q1_met_frac", 1.0 - q1_miss, "ratio");
  r.note("q1_miss_frac", q1_miss, "ratio");
  r.note("q1_requests", q1, "count");
}

void add_layer_metrics(const SimSetup& s, int shards, const Totals& t,
                       const std::vector<PassOut>& traced,
                       double untraced_wall, Report& r) {
  auto& L = r.layers;
  const double passes = static_cast<double>(traced.size());
  const double reqs = static_cast<double>(s.requests);
  auto per_pass = [&](double x) { return x / passes; };
  auto per_call = [](const Acc& a, std::uint64_t ns) {
    return a.calls > 0 ? static_cast<double>(ns) / static_cast<double>(a.calls)
                       : 0.0;
  };
  auto secs = [&](std::uint64_t ns) {
    return per_pass(static_cast<double>(ns) / 1e9);
  };

  double wall = 0, barrier_ns = 0, coordinator_allocs = 0, bytes = 0;
  std::uint64_t windows = 0;
  std::vector<double> walls;
  for (const PassOut& p : traced) {
    wall += p.wall_s;
    walls.push_back(p.wall_s);
    barrier_ns += static_cast<double>(p.barrier_ns);
    coordinator_allocs += static_cast<double>(p.coordinator_allocs);
    bytes += static_cast<double>(p.trace_bytes);
    windows = p.stats.windows;
  }
  wall = per_pass(wall);

  const Acc& gen = t[kGen];
  const Acc& pull = t[kPull];
  L["trace.gen_calls"] = per_pass(static_cast<double>(gen.calls));
  L["trace.gen_ns"] = per_call(gen, gen.total_ns);
  L["stream.merge_ns"] = per_call(pull, pull.self_ns);
  L["stream.pull_s"] = secs(pull.total_ns);

  std::uint64_t sched_ns = 0, sched_allocs = 0;
  for (int p = 0; p < kPolicies; ++p) {
    const Acc& a = t[static_cast<std::size_t>(kArrival + p)];
    const Acc& n = t[static_cast<std::size_t>(kNextFor + p)];
    const Acc& c = t[static_cast<std::size_t>(kComplete + p)];
    const std::string name = std::string("sched.") + kPolicyNames[p];
    L[name + ".arrival_ns"] = per_call(a, a.total_ns);
    L[name + ".next_for_ns"] = per_call(n, n.total_ns);
    L[name + ".complete_ns"] = per_call(c, c.total_ns);
    L[name + ".next_for_calls"] = per_pass(static_cast<double>(n.calls));
    L[name + ".next_for_hit"] =
        n.calls > 0 ? static_cast<double>(n.hits) / static_cast<double>(n.calls)
                    : 0.0;
    sched_ns += a.total_ns + n.total_ns + c.total_ns;
    sched_allocs += a.self_allocs + n.self_allocs + c.self_allocs;
  }
  const Acc& server = t[kServer];
  L["server.calls"] = per_pass(static_cast<double>(server.calls));
  L["server.service_ns"] = per_call(server, server.total_ns);

  const double lane_busy = secs(sched_ns + server.total_ns);
  const double barrier = per_pass(barrier_ns / 1e9);
  L["sharded.windows"] = static_cast<double>(windows);
  L["sharded.barrier_s"] = barrier;
  L["sharded.lane_busy_s"] = lane_busy;
  L["sharded.worker_util"] =
      barrier > 0 ? lane_busy / (static_cast<double>(shards) * barrier) : 0.0;
  L["sharded.emit_s"] = secs(t[kEmit].total_ns);

  std::uint64_t self_allocs = 0;
  for (const Acc& a : t) self_allocs += a.self_allocs;
  if (shards == 1) {
    // Everything runs on the coordinator, so what the decorated calls do not
    // cover is the event engine itself (and the sharding shell around it).
    L["engine.self_s"] =
        wall - secs(pull.total_ns) - lane_busy - secs(t[kEmit].total_ns) -
        secs(t[kSink].total_ns);
    L["alloc.engine_per_req"] =
        (per_pass(coordinator_allocs) - per_pass(static_cast<double>(self_allocs))) /
        reqs;
  }

  const Acc& sink = t[kSink];
  L["obs.events"] = per_pass(static_cast<double>(sink.calls));
  L["obs.sink_ns"] = per_call(sink, sink.total_ns);
  L["obs.trace_bytes_per_req"] = per_pass(bytes) / reqs;

  if (s.shape.bursty) {
    L["plan.s"] = static_cast<double>(s.plan_ns) / 1e9;
    L["plan.probes"] = static_cast<double>(s.plan_probes);
    L["plan.ns_per_probe_req"] = static_cast<double>(s.plan_ns) /
                                 static_cast<double>(s.plan_probe_requests);
    L["alloc.plan_per_req"] = static_cast<double>(s.plan_allocs) /
                              static_cast<double>(s.plan_requests);
  }

  auto allocs_per_req = [&](std::uint64_t n) {
    return per_pass(static_cast<double>(n)) / reqs;
  };
  L["alloc.trace_per_req"] = allocs_per_req(gen.self_allocs);
  L["alloc.stream_per_req"] = allocs_per_req(pull.self_allocs);
  L["alloc.sched_per_req"] = allocs_per_req(sched_allocs);
  L["alloc.server_per_req"] = allocs_per_req(server.self_allocs);
  L["alloc.obs_per_req"] = allocs_per_req(sink.self_allocs);

  L["share.stream"] = secs(pull.total_ns) / wall;
  L["share.barrier"] = barrier / wall;
  L["share.lanes"] = lane_busy / (static_cast<double>(shards) * wall);
  L["traced.wall_s"] = wall;
  L["trace_overhead"] = median(walls) / untraced_wall - 1.0;
}

}  // namespace

Report run_sim(const Options& o, bool bursty) {
  Report report;
  const SimShape shape = shape_for(bursty, false);
  const int shards = bursty ? sim_shards(o.nproc) : 1;

  // Reference work on as many threads as a pass runs, around each set-up
  // and each untraced pass: the host's speed while that work ran.
  const int threads = threads_used(bursty ? "sim-bursty" : "sim-steady",
                                   o.nproc);
  SimSetup setup;
  std::vector<double> setup_s = {reference_seconds(
      threads, [&] { setup = setup_sim(shape, o.seed); })};
  auto time_setup = [&] {
    setup_s.push_back(
        reference_seconds(threads, [&] { (void)setup_sim(shape, o.seed); }));
  };
  report.params = {"tenants=" + std::to_string(shape.tenants),
                   "tenant_seconds=" + std::to_string(to_sec(shape.duration)),
                   "requests_per_pass=" + std::to_string(setup.requests),
                   "shards=" + std::to_string(shards),
                   "lookahead_us=" + std::to_string(kDelta),
                   "tracer=" + std::string(bursty ? "QOSTRC02" : "none")};
  if (!bursty)
    report.params.push_back("poisson_iops=" +
                            std::to_string(shape.steady_rate));

  SimRunner runner(setup);
  std::vector<PassOut> untraced;
  std::vector<PassOut> traced;
  double measured = 0;
  std::vector<double> ref_ns;
  auto timed_pass = [&](std::vector<PassOut>& into, bool timed) {
    const double r0 = timed ? 0 : reference_ns_on(threads);
    const std::int64_t p0 = now_ns();
    into.push_back(runner.pass(shards, timed));
    measured += static_cast<double>(now_ns() - p0) / 1e9;
    if (!timed) ref_ns.push_back(0.5 * (r0 + reference_ns_on(threads)));
  };
  double rss_mib = 0;
  if (!o.trace) {
    do {
      timed_pass(untraced, false);
      if (untraced.size() == 1) rss_mib = peak_rss_mib();
      if (setup_due(setup_s.size(), measured, o.seconds)) time_setup();
    } while (measured < o.seconds);
    while (setup_s.size() < kSetups) time_setup();
  } else {
    // Alternate untraced and traced passes over the same input, so the
    // tracing overhead compares like with like.
    set_span_sampling(0);
    collect_and_reset();
    do {
      timed_pass(untraced, false);
      set_span_sampling(traced.empty() ? 4096 : 0);  // spans: first pass
      timed_pass(traced, true);
    } while (measured < o.seconds);
  }

  const PassOut& first = untraced.front();
  std::vector<double> meps, ref_meps, walls;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const PassOut& p = untraced[i];
    verify_pass(setup, p, first, report);
    meps.push_back(static_cast<double>(p.stats.events()) / p.wall_s / 1e6);
    ref_meps.push_back(reference_rate(meps.back(), ref_ns[i]));
    walls.push_back(p.wall_s);
  }
  for (const PassOut& p : traced) {
    verify_pass(setup, p, first, report);
  }

  if (!o.trace) {
    report.metric("throughput_ref_mops", median(ref_meps), "Mops/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mib", rss_mib, "MiB");
    add_outcome_metrics(setup, first, report);
    report.note("sim_meps", median(meps), "M_events/s");
    report.note("reference_ns", median(ref_ns), "ns");
    report.note("passes", static_cast<double>(untraced.size()), "count");
    report.note("events_per_pass", static_cast<double>(first.stats.events()),
                "count");
    report.note("windows_per_pass", static_cast<double>(first.stats.windows),
                "count");
  } else {
    add_layer_metrics(setup, shards, collect_and_reset(), traced,
                      median(walls), report);
    report.note("traced_passes", static_cast<double>(traced.size()), "count");
  }
  return report;
}

bool check_sim(bool bursty, std::uint64_t seed, int nproc,
               std::vector<std::string>& log) {
  const SimSetup setup = setup_sim(shape_for(bursty, true), seed);
  SimRunner runner(setup);
  const int shards = sim_shards(nproc);
  const PassOut serial = runner.pass(1, false);
  const PassOut sharded = runner.pass(shards, false);
  const PassOut traced = runner.pass(shards, true);
  collect_and_reset();

  const char* name = bursty ? "sim-bursty" : "sim-steady";
  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    log.push_back(std::string(cond ? "ok   " : "FAIL ") + name + ": " + what);
    ok = ok && cond;
  };
  expect(serial.failed == 0 && sharded.failed == 0 && traced.failed == 0 &&
             serial.stats.completions == setup.requests,
         "every request completes exactly once (" +
             std::to_string(setup.requests) + " requests)");
  expect(serial.completion_digest == sharded.completion_digest,
         "completion digest at shards 1 == shards " + std::to_string(shards));
  expect(sharded.completion_digest == traced.completion_digest,
         "completion digest untraced == traced");
  if (bursty) {
    expect(serial.stats.event_digest.hi == sharded.stats.event_digest.hi &&
               serial.stats.event_digest.lo == sharded.stats.event_digest.lo &&
               sharded.stats.event_digest.hi == traced.stats.event_digest.hi &&
               sharded.stats.event_digest.lo == traced.stats.event_digest.lo,
           "event digest equal across shards and tracing");
    expect(serial.trace_bytes == sharded.trace_bytes &&
               sharded.trace_bytes == traced.trace_bytes &&
               serial.trace_bytes > 0,
           "QOSTRC02 byte count equal across shards and tracing");
  }
  return ok;
}

}  // namespace perfbench
