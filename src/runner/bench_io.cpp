#include "runner/bench_io.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/trace_stream.h"
#include "util/parse_number.h"

namespace qos {

std::unique_ptr<ResultCache> BenchOptions::make_cache() const {
  if (!use_cache) return nullptr;
  ResultCache::Config config;
  config.disk_dir = cache_dir;
  return std::make_unique<ResultCache>(config);
}

SweepOptions BenchOptions::sweep_options(ResultCache* cache) const {
  SweepOptions sweep;
  sweep.threads = threads;
  sweep.cache = cache;
  sweep.trace = trace;
  sweep.tracer.sample_every = trace_sample;
  sweep.profile = profile.get();
  return sweep;
}

BenchOptions parse_bench_args(int argc, char** argv,
                              const std::string& bench_name) {
  BenchOptions options;
  options.bench_name = bench_name;
  auto usage = [&](const char* bad) {
    std::fprintf(stderr,
                 "%s: unknown or malformed argument '%s'\n"
                 "usage: %s [--threads N] [--no-cache] [--cache-dir DIR] "
                 "[--json PATH] [--trace] [--trace-out STEM] "
                 "[--trace-sample N]\n",
                 bench_name.c_str(), bad, bench_name.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(arg);
      return argv[++i];
    };
    if (std::strcmp(arg, "--threads") == 0) {
      const char* v = value();
      const auto threads = parse_whole_number(v, 0);
      if (!threads) usage(v);
      options.threads = *threads;
    } else if (std::strcmp(arg, "--no-cache") == 0) {
      options.use_cache = false;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      options.cache_dir = value();
    } else if (std::strcmp(arg, "--json") == 0) {
      options.json_path = value();
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      options.trace_out = value();
    } else if (std::strcmp(arg, "--trace-sample") == 0) {
      const char* v = value();
      const auto sample = parse_whole_number<std::uint64_t>(v, 1);
      if (!sample) usage(v);
      options.trace_sample = *sample;
    } else {
      usage(arg);
    }
  }
  if (options.json_path.empty())
    options.json_path = "BENCH_" + bench_name + ".json";
  if (options.trace_out.empty())
    options.trace_out = "TRACE_" + bench_name;
  options.profile = std::make_shared<ProfileCollector>();
  return options;
}

std::string bench_timing_json(const BenchTiming& timing,
                              const ProfileCollector* profile) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"%s\",\n"
                "  \"wall_seconds\": %.6f,\n"
                "  \"cells\": %llu,\n"
                "  \"cache_hits\": %llu,\n"
                "  \"rows\": %llu,\n"
                "  \"threads\": %d",
                timing.name.c_str(), timing.wall_seconds,
                static_cast<unsigned long long>(timing.cells),
                static_cast<unsigned long long>(timing.cache_hits),
                static_cast<unsigned long long>(timing.rows), timing.threads);
  std::string out = buf;
  if (timing.traced) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"trace\": {\"observed\": %llu, \"retained\": %llu, "
                  "\"dropped\": %llu}",
                  static_cast<unsigned long long>(timing.trace_observed),
                  static_cast<unsigned long long>(timing.trace_retained),
                  static_cast<unsigned long long>(timing.trace_dropped));
    out += buf;
  }
  if (profile != nullptr && !profile->empty()) {
    out += ",\n  \"profile\": {";
    bool first = true;
    for (const auto& [phase, p] : profile->snapshot()) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n    \"%s\": {\"calls\": %llu, \"wall_us\": %llu, "
                    "\"cpu_us\": %llu, \"max_wall_us\": %llu}",
                    first ? "" : ",", phase.c_str(),
                    static_cast<unsigned long long>(p.calls),
                    static_cast<unsigned long long>(p.wall_us),
                    static_cast<unsigned long long>(p.cpu_us),
                    static_cast<unsigned long long>(p.max_wall_us));
      out += buf;
      first = false;
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

namespace {

void write_manifest(const BenchOptions& options, const BenchTiming& timing,
                    bool warn_unused_trace) {
  if (warn_unused_trace && options.trace)
    std::fprintf(stderr,
                 "[%s] --trace has no effect: this bench runs no sweep\n",
                 options.bench_name.c_str());
  std::ofstream out(options.json_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[%s] cannot write %s\n", options.bench_name.c_str(),
                 options.json_path.c_str());
    return;
  }
  out << bench_timing_json(timing, options.profile.get());
  std::fprintf(stderr, "[%s] timing written to %s\n",
               options.bench_name.c_str(), options.json_path.c_str());
}

}  // namespace

void write_bench_json(const BenchOptions& options, const BenchTiming& timing) {
  write_manifest(options, timing, /*warn_unused_trace=*/true);
}

namespace {

void write_trace_outputs(const BenchOptions& options,
                         const SweepRunner& runner) {
  if (!options.trace) return;
  const char* bench = options.bench_name.c_str();
  if (runner.traces().empty()) {
    std::fprintf(stderr, "[%s] --trace set but the run produced no traces\n",
                 bench);
    return;
  }
  const std::string bin_path = options.trace_out + ".trace.bin";
  const std::string json_path = options.trace_out + ".perfetto.json";
  {
    // One QOSTRC02 stream per traced cell, back to back.
    std::ofstream out(bin_path, std::ios::trunc | std::ios::binary);
    for (const TraceData& t : runner.traces()) write_trace_stream(out, t);
    if (!out) {
      std::fprintf(stderr, "[%s] cannot write %s\n", bench, bin_path.c_str());
      return;
    }
    std::fprintf(stderr, "[%s] trace container written to %s\n", bench,
                 bin_path.c_str());
  }
  // The Perfetto JSON streams from the file just written, so neither
  // document is ever held in memory.
  std::ifstream in(bin_path, std::ios::binary);
  std::ofstream out(json_path, std::ios::trunc);
  if (in && out && perfetto_trace_json_stream(in, out)) {
    std::fprintf(stderr,
                 "[%s] Perfetto trace written to %s "
                 "(open in https://ui.perfetto.dev)\n",
                 bench, json_path.c_str());
  } else {
    std::fprintf(stderr, "[%s] cannot write %s\n", bench, json_path.c_str());
  }
}

}  // namespace

void write_bench_json(const BenchOptions& options, const SweepRunner& runner,
                      std::uint64_t rows, double wall_seconds) {
  BenchTiming timing;
  timing.name = options.bench_name;
  timing.wall_seconds = wall_seconds;
  timing.cells = runner.stats().cells;
  timing.cache_hits = runner.stats().cache_hits;
  timing.rows = rows;
  timing.threads = runner.pool().thread_count();
  if (options.trace) {
    timing.traced = true;
    for (const TraceData& t : runner.traces()) {
      timing.trace_observed += t.observed;
      timing.trace_retained += t.spans.size();
      timing.trace_dropped += t.dropped;
    }
  }
  write_manifest(options, timing, /*warn_unused_trace=*/false);
  write_trace_outputs(options, runner);
}

double bench_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace qos
