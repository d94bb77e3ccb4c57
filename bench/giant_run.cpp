// Giant-run streaming benchmark: drives a multi-tenant synthetic run
// through stream::simulate_sharded without ever materializing the trace or
// the completion log, and emits BENCH_stream.json for the CI perf-smoke job
// (scripts/check_perf.py --stream).
//
// The harness makes two claims, and its two output channels separate them:
//
//   stdout   the *deterministic* summary — request/completion counts, the
//            input-stream digest (TraceDigester, cache-identical to
//            hash_trace of the materialized equivalent) and a digest folded
//            over the canonical completion sequence, plus the makespan.
//            Nothing shard- or timing-dependent is printed, so CI runs the
//            binary at --shards 1/2/8 and `cmp`s the outputs byte for byte:
//            shard count is a pure parallelism knob.
//
//   --json   the *performance* numbers — events/sec, wall time, peak RSS
//            against the --rss-ceiling-mb contract, and the machine-
//            normalized throughput (events/sec divided by the in-process
//            machine-speed reference of bench/calibration.h, shared with the
//            online harness) that check_perf.py --stream gates against
//            bench/BENCH_stream.baseline.json (>25% regression fails).
//
// The workload is T identical-rate Poisson tenants merged into one stream;
// --requests picks the per-tenant rate so the expected total matches, which
// makes the harness scale smoothly from the CI default (2M requests) to the
// 1e8-request acceptance run (--requests 100000000) with the same bounded
// footprint: memory holds one barrier window of arrivals plus per-lane
// in-flight state, never the run.
//
// Observability (all off by default — the untraced stdout block is
// byte-identical to earlier builds):
//
//   --trace       attach a Tracer to the canonically merged event stream and
//                 stream spans into <stem>.trace.bin (chunked QOSTRC02 —
//                 bounded memory at any run length) plus a streaming
//                 Perfetto export <stem>.perfetto.json; stdout gains an
//                 event-digest block that is still shard-independent, so CI
//                 cmp extends to the event stream itself.
//   --metrics     fan per-lane metric registries into a global snapshot,
//                 printed on stdout (shard-independent, including the
//                 occupancy doubles — fan-in folds in fixed tenant order).
//   --overhead    run an uninstrumented reference pass first and embed
//                 untraced_events_per_sec / obs_overhead in the JSON for
//                 the check_perf.py --stream observability gate.
//
// usage: giant_run [--requests N] [--tenants T] [--duration-sec S]
//                  [--shards K] [--lookahead-us D] [--seed S]
//                  [--rss-ceiling-mb M] [--repeats R] [--json PATH]
//                  [--trace] [--trace-out STEM] [--trace-sample N]
//                  [--metrics] [--overhead]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "args.h"
#include "calibration.h"
#include "core/shaper.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/trace_stream.h"
#include "runner/hash.h"
#include "stream/gen_stream.h"
#include "stream/sharded.h"
#include "stream/stream.h"
#include "util/time.h"

namespace {

using namespace qos;

struct Options {
  std::uint64_t requests = 2'000'000;  ///< expected total (Poisson mean)
  int tenants = 4;
  double duration_sec = 600;
  int shards = 1;
  Time lookahead_us = 10'000;
  std::uint64_t seed = 1;
  double rss_ceiling_mb = 256;
  int repeats = 2;
  std::string json_path;

  bool trace = false;
  std::string trace_out = "TRACE_giant_run";
  std::uint64_t trace_sample = 1;
  bool metrics = false;
  bool overhead = false;
};

/// The deadline the streamed trace is annotated with (giant_run provisions
/// every lane the same way, so one delta serves attribution for all).
constexpr Time kTraceDelta = from_ms(10);

[[noreturn]] void usage_abort() {
  std::fprintf(stderr,
               "usage: giant_run [--requests N] [--tenants T]\n"
               "                 [--duration-sec S] [--shards K]\n"
               "                 [--lookahead-us D] [--seed S]\n"
               "                 [--rss-ceiling-mb M] [--repeats R]\n"
               "                 [--json PATH] [--trace] [--trace-out STEM]\n"
               "                 [--trace-sample N] [--metrics] [--overhead]\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_abort();
      return argv[++i];
    };
    if (std::strcmp(a, "--requests") == 0) {
      o.requests =
          bench::parse_number<std::uint64_t>(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--tenants") == 0) {
      o.tenants = bench::parse_number(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--duration-sec") == 0) {
      o.duration_sec = bench::parse_number(value(), 0.0, usage_abort);
    } else if (std::strcmp(a, "--shards") == 0) {
      o.shards = bench::parse_number(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--lookahead-us") == 0) {
      o.lookahead_us = bench::parse_number<Time>(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--seed") == 0) {
      o.seed = bench::parse_number<std::uint64_t>(value(), 0, usage_abort);
    } else if (std::strcmp(a, "--rss-ceiling-mb") == 0) {
      o.rss_ceiling_mb = bench::parse_number(value(), 0.0, usage_abort);
    } else if (std::strcmp(a, "--repeats") == 0) {
      o.repeats = bench::parse_number(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--json") == 0) {
      o.json_path = value();
    } else if (std::strcmp(a, "--trace") == 0) {
      o.trace = true;
    } else if (std::strcmp(a, "--trace-out") == 0) {
      o.trace_out = value();
    } else if (std::strcmp(a, "--trace-sample") == 0) {
      o.trace_sample =
          bench::parse_number<std::uint64_t>(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--metrics") == 0) {
      o.metrics = true;
    } else if (std::strcmp(a, "--overhead") == 0) {
      o.overhead = true;
    } else {
      usage_abort();
    }
  }
  if (o.duration_sec <= 0 || o.rss_ceiling_mb <= 0 || o.trace_out.empty())
    usage_abort();
  return o;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#ifdef __APPLE__
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
}

// Every policy family behind the sharding layer: tenant t cycles through
// the four schedulers so the determinism claim covers single-server,
// dual-server and fair-queue lanes at once.
constexpr Policy kPolicyCycle[] = {Policy::kMiser, Policy::kSplit,
                                   Policy::kFairQueue, Policy::kFcfs};

// Servers come from make_servers, as in shape_and_run.  Cmin is
// provisioned at 1.5x the tenant's offered rate and the headroom at 0.25x,
// so every lane is stable and queues — and therefore memory — stay bounded.
stream::TenantSim build_tenant(double rate_iops, std::uint32_t client) {
  ShapingConfig config;
  config.policy = kPolicyCycle[client % std::size(kPolicyCycle)];
  config.headroom_override_iops = 0.25 * rate_iops;
  const double cmin = 1.5 * rate_iops;
  stream::TenantSim sim;
  sim.scheduler = make_scheduler(config, cmin);
  sim.servers = make_servers(config, cmin, sim.scheduler->server_count());
  return sim;
}

/// One full pass over the workload.  `instrumented` false is the --overhead
/// reference: identical streams and lanes, no sink, no registry.
struct RunOutput {
  stream::ShardedStats stats;
  Digest request_digest;
  Digest completion_digest;
  double wall_sec = 0;

  std::uint64_t events_observed = 0;  ///< events the merged sink forwarded
  Digest event_digest;                ///< valid when traced
  std::uint64_t trace_observed = 0;
  std::uint64_t trace_dropped = 0;
  MetricRegistry registry;  ///< fanned-in global snapshot when metered
};

RunOutput run_once(const Options& o, bool instrumented) {
  const double rate_iops =
      static_cast<double>(o.requests) /
      (static_cast<double>(o.tenants) * o.duration_sec);
  const Time duration =
      static_cast<Time>(o.duration_sec * static_cast<double>(kUsPerSec));

  std::vector<std::unique_ptr<stream::RequestStream>> sources;
  sources.reserve(static_cast<std::size_t>(o.tenants));
  for (int t = 0; t < o.tenants; ++t)
    sources.push_back(stream::make_poisson_stream(
        rate_iops, duration, o.seed + static_cast<std::uint64_t>(t)));
  stream::MergedStream merged(std::move(sources));
  stream::DigestingStream input(merged);

  auto factory = [rate_iops](std::uint32_t client) {
    return build_tenant(rate_iops, client);
  };

  RunOutput out;
  const bool traced = instrumented && o.trace;
  const bool metered = instrumented && o.metrics;

  // Trace path: Tracer on the canonically merged stream, spans streamed
  // into the chunked QOSTRC02 container (bounded memory at any run length).
  // The event digest rides the merge itself (ShardedStats::event_digest), so
  // no digesting sink needs to sit downstream of the Tracer.
  Tracer tracer(TracerConfig{.sample_every = o.trace_sample});
  std::ofstream trace_file;
  std::optional<ChunkedTraceWriter> writer;

  stream::ShardedOptions sharded{.shards = o.shards,
                                 .lookahead = o.lookahead_us};
  if (traced) {
    const std::string bin_path = o.trace_out + ".trace.bin";
    trace_file.open(bin_path, std::ios::trunc | std::ios::binary);
    if (!trace_file) {
      std::fprintf(stderr, "giant_run: cannot write %s\n", bin_path.c_str());
      std::exit(1);
    }
    tracer.annotate("giant_run", "poisson", kTraceDelta);
    writer.emplace(trace_file,
                   StreamTraceMeta{"giant_run", "poisson", kTraceDelta,
                                   o.trace_sample});
    tracer.set_span_sink(&*writer);
    sharded.sink = &tracer;
  }
  if (metered) sharded.registry = &out.registry;

  // The completion log is never materialized: the canonical sequence is
  // folded into a digest on the fly, which is both the memory contract and
  // the cross-shard identity witness.
  ContentHasher completions;
  const auto t0 = std::chrono::steady_clock::now();
  out.stats = stream::simulate_sharded(
      input, factory, sharded, [&completions](const CompletionRecord& r) {
        completions.u64(r.seq)
            .u64(r.client)
            .i64(r.arrival)
            .i64(r.start)
            .i64(r.finish)
            .u64(static_cast<std::uint64_t>(r.klass))
            .u64(r.server);
      });
  out.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (traced) {
    writer->finish(tracer.observed(), tracer.dropped());
    out.events_observed = out.stats.events_forwarded;
    out.event_digest = {out.stats.event_digest.hi, out.stats.event_digest.lo};
    out.trace_observed = tracer.observed();
    out.trace_dropped = tracer.dropped();
  }
  out.request_digest = input.finish();
  out.completion_digest = completions.digest();
  return out;
}

/// Deterministic (shard-independent) metric snapshot: maps iterate in name
/// order and the fan-in folds doubles in fixed tenant order, so this block
/// is byte-identical across shard counts.
void print_metric_snapshot(const MetricRegistry& reg) {
  std::printf("metrics snapshot (fanned-in)\n");
  for (const auto& [name, c] : reg.counters())
    std::printf("counter    %-18s %llu\n", name.c_str(),
                static_cast<unsigned long long>(c.value()));
  for (const auto& [name, g] : reg.gauges())
    std::printf("gauge      %-18s %.6f\n", name.c_str(), g.value());
  for (const auto& [name, h] : reg.histograms())
    std::printf("histogram  %-18s n=%llu min=%lld max=%lld mean=%.6f\n",
                name.c_str(), static_cast<unsigned long long>(h.count()),
                static_cast<long long>(h.min()),
                static_cast<long long>(h.max()), h.mean_us());
  for (const auto& [name, s] : reg.occupancies())
    std::printf("occupancy  %-18s mean=%.6f max=%lld\n", name.c_str(),
                s.mean(), static_cast<long long>(s.max()));
}

struct ObsJson {
  bool traced = false;
  bool metrics = false;
  std::uint64_t events_observed = 0;
  std::string event_digest;
  std::uint64_t trace_observed = 0;
  std::uint64_t trace_dropped = 0;
  double untraced_events_per_sec = 0;  ///< 0 = no --overhead reference ran
  double obs_overhead = 0;             ///< (untraced - traced) / untraced
};

void write_json(const Options& o, const stream::ShardedStats& stats,
                const Digest& request_digest, const Digest& completion_digest,
                double wall_sec, double events_per_sec, double calibration,
                std::uint64_t rss, std::uint64_t ceiling_bytes,
                const ObsJson& obs) {
  std::FILE* f = std::fopen(o.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "giant_run: cannot write %s\n", o.json_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"harness\": \"giant_run\",\n");
  std::fprintf(f, "  \"requests\": %llu,\n",
               static_cast<unsigned long long>(stats.requests));
  std::fprintf(f, "  \"completions\": %llu,\n",
               static_cast<unsigned long long>(stats.completions));
  std::fprintf(f, "  \"dispatches\": %llu,\n",
               static_cast<unsigned long long>(stats.dispatches));
  std::fprintf(f, "  \"events\": %llu,\n",
               static_cast<unsigned long long>(stats.events()));
  std::fprintf(f, "  \"windows\": %llu,\n",
               static_cast<unsigned long long>(stats.windows));
  std::fprintf(f, "  \"tenants\": %llu,\n",
               static_cast<unsigned long long>(stats.tenants));
  std::fprintf(f, "  \"shards\": %d,\n", o.shards);
  std::fprintf(f, "  \"lookahead_us\": %lld,\n",
               static_cast<long long>(o.lookahead_us));
  std::fprintf(f, "  \"duration_sec\": %.3f,\n", o.duration_sec);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "  \"makespan_us\": %lld,\n",
               static_cast<long long>(stats.makespan));
  std::fprintf(f, "  \"request_digest\": \"%s\",\n",
               request_digest.to_hex().c_str());
  std::fprintf(f, "  \"completion_digest\": \"%s\",\n",
               completion_digest.to_hex().c_str());
  std::fprintf(f, "  \"wall_sec\": %.6f,\n", wall_sec);
  std::fprintf(f, "  \"events_per_sec\": %.1f,\n", events_per_sec);
  std::fprintf(f, "  \"calibration_ops_per_sec\": %.1f,\n", calibration);
  std::fprintf(f, "  \"normalized\": %.6f,\n",
               calibration > 0 ? events_per_sec / calibration : 0.0);
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n",
               static_cast<unsigned long long>(rss));
  std::fprintf(f, "  \"rss_ceiling_bytes\": %llu,\n",
               static_cast<unsigned long long>(ceiling_bytes));
  std::fprintf(f, "  \"rss_ok\": %s,\n",
               rss <= ceiling_bytes ? "true" : "false");
  // Observability accounting — always present so check_perf.py --stream can
  // tell a traced manifest (gated on obs_overhead, exempt from the baseline
  // throughput compare) from an untraced one.  trace_dropped > 0 would be
  // silent span loss; surfacing it here is the satellite contract.
  std::fprintf(f, "  \"observability\": {\n");
  std::fprintf(f, "    \"traced\": %s,\n", obs.traced ? "true" : "false");
  std::fprintf(f, "    \"metrics\": %s,\n", obs.metrics ? "true" : "false");
  std::fprintf(f, "    \"events_observed\": %llu,\n",
               static_cast<unsigned long long>(obs.events_observed));
  std::fprintf(f, "    \"event_digest\": \"%s\",\n", obs.event_digest.c_str());
  std::fprintf(f, "    \"trace_observed\": %llu,\n",
               static_cast<unsigned long long>(obs.trace_observed));
  std::fprintf(f, "    \"trace_dropped\": %llu,\n",
               static_cast<unsigned long long>(obs.trace_dropped));
  std::fprintf(f, "    \"untraced_events_per_sec\": %.1f,\n",
               obs.untraced_events_per_sec);
  std::fprintf(f, "    \"obs_overhead\": %.6f\n", obs.obs_overhead);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int run(const Options& o) {
  // Calibrate before the run so the loop measures an otherwise-quiet
  // process, exactly like the online harness.
  const double calibration = bench::calibration_ops_per_sec(o.repeats);

  ObsJson obs;
  obs.traced = o.trace;
  obs.metrics = o.metrics;

  auto eps = [](const RunOutput& out) {
    return out.wall_sec > 0
               ? static_cast<double>(out.stats.events()) / out.wall_sec
               : 0.0;
  };

  // --overhead: alternate uninstrumented reference and instrumented passes
  // over the identical workload --repeats times and compare best against
  // best.  A single back-to-back pair is too exposed to machine noise for a
  // ratio gate — the two passes can land on different turbo or contention
  // regimes and swing the ratio by tens of points; best-of-N on each side
  // filters the transients.  Every instrumented pass is deterministic, so
  // re-running it just rewrites identical trace bytes.
  RunOutput r;
  double best_instrumented_eps = 0;
  if (o.overhead && (o.trace || o.metrics)) {
    for (int rep = 0; rep < o.repeats; ++rep) {
      const RunOutput ref = run_once(o, /*instrumented=*/false);
      obs.untraced_events_per_sec =
          std::max(obs.untraced_events_per_sec, eps(ref));
      r = run_once(o, /*instrumented=*/true);
      best_instrumented_eps = std::max(best_instrumented_eps, eps(r));
    }
  } else {
    r = run_once(o, /*instrumented=*/true);
  }
  const stream::ShardedStats& stats = r.stats;
  const double wall_sec = r.wall_sec;

  const double events_per_sec =
      best_instrumented_eps > 0 ? best_instrumented_eps : eps(r);
  if (obs.untraced_events_per_sec > 0)
    obs.obs_overhead =
        (obs.untraced_events_per_sec - events_per_sec) /
        obs.untraced_events_per_sec;
  if (o.trace) {
    obs.events_observed = r.events_observed;
    obs.event_digest = r.event_digest.to_hex();
    obs.trace_observed = r.trace_observed;
    obs.trace_dropped = r.trace_dropped;
  }
  const std::uint64_t rss = peak_rss_bytes();
  const auto ceiling_bytes =
      static_cast<std::uint64_t>(o.rss_ceiling_mb * 1024.0 * 1024.0);

  // Deterministic, shard-independent summary: CI diffs this block byte for
  // byte across --shards 1/2/8.  Keep timings, shard count and RSS out.
  // The observability blocks below are equally shard-independent — every
  // shard count (including 1) routes events through the same canonical
  // ShardedEventSink merge and the same fixed-order metric fan-in — so CI's
  // cmp covers them too whenever the flags match.
  std::printf("giant_run summary (shard-independent)\n");
  std::printf("tenants            %llu\n",
              static_cast<unsigned long long>(stats.tenants));
  std::printf("requests           %llu\n",
              static_cast<unsigned long long>(stats.requests));
  std::printf("dispatches         %llu\n",
              static_cast<unsigned long long>(stats.dispatches));
  std::printf("completions        %llu\n",
              static_cast<unsigned long long>(stats.completions));
  std::printf("makespan_us        %lld\n",
              static_cast<long long>(stats.makespan));
  std::printf("request_digest     %s\n", r.request_digest.to_hex().c_str());
  std::printf("completion_digest  %s\n", r.completion_digest.to_hex().c_str());
  if (o.trace) {
    std::printf("events_observed    %llu\n",
                static_cast<unsigned long long>(r.events_observed));
    std::printf("event_digest       %s\n", r.event_digest.to_hex().c_str());
    std::printf("trace_observed     %llu\n",
                static_cast<unsigned long long>(r.trace_observed));
    std::printf("trace_dropped      %llu\n",
                static_cast<unsigned long long>(r.trace_dropped));
  }
  if (o.metrics) print_metric_snapshot(r.registry);

  // Performance lines go to stderr so stdout stays comparable.
  std::fprintf(stderr,
               "giant_run: shards=%d lookahead=%lldus wall=%.3fs "
               "events/s=%.0f normalized=%.4f peak_rss=%.1fMiB "
               "(ceiling %.0fMiB)\n",
               o.shards, static_cast<long long>(o.lookahead_us), wall_sec,
               events_per_sec,
               calibration > 0 ? events_per_sec / calibration : 0.0,
               static_cast<double>(rss) / (1024.0 * 1024.0),
               o.rss_ceiling_mb);
  if (obs.untraced_events_per_sec > 0)
    std::fprintf(stderr,
                 "giant_run: untraced events/s=%.0f obs_overhead=%.4f\n",
                 obs.untraced_events_per_sec, obs.obs_overhead);

  // Streaming Perfetto export: read the chunked container back through the
  // cursor-based scanner, never holding more than one chunk in memory.
  if (o.trace) {
    const std::string bin_path = o.trace_out + ".trace.bin";
    const std::string json_path = o.trace_out + ".perfetto.json";
    std::ifstream in(bin_path, std::ios::binary);
    std::ofstream out(json_path, std::ios::trunc);
    if (in && out && perfetto_trace_json_stream(in, out)) {
      std::fprintf(stderr,
                   "giant_run: trace container %s, Perfetto export %s "
                   "(open in https://ui.perfetto.dev)\n",
                   bin_path.c_str(), json_path.c_str());
    } else {
      std::fprintf(stderr, "giant_run: Perfetto export to %s failed\n",
                   json_path.c_str());
      return 1;
    }
  }

  if (!o.json_path.empty())
    write_json(o, stats, r.request_digest, r.completion_digest, wall_sec,
               events_per_sec, calibration, rss, ceiling_bytes, obs);

  if (stats.completions != stats.requests) {
    std::fprintf(stderr, "giant_run: completions != requests\n");
    return 1;
  }
  if (rss > ceiling_bytes) {
    std::fprintf(stderr, "giant_run: peak RSS %llu exceeds ceiling %llu\n",
                 static_cast<unsigned long long>(rss),
                 static_cast<unsigned long long>(ceiling_bytes));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_args(argc, argv)); }
