// Shared bench scaffolding: command-line options and BENCH_<name>.json.
//
// Every SweepRunner-based bench accepts the same flags —
//
//   --threads N     worker threads including the caller (0 = hardware,
//                   default 1 so plain runs stay the serial reference)
//   --no-cache      disable the result cache entirely
//   --cache-dir D   on-disk cache tier directory (default build/.qos_cache
//                   relative to the working directory; "" = memory only)
//   --json PATH     where to write the timing JSON
//                   (default BENCH_<name>.json in the working directory)
//   --trace         record request-level traces (SweepRunner benches);
//                   writes <stem>.trace.bin + <stem>.perfetto.json
//   --trace-out S   trace output stem (default TRACE_<name>)
//   --trace-sample N keep spans for every Nth request (default 1 = all)
//
// — and finishes by writing a small JSON record (wall time, cells, cache
// hits, rows, threads) so successive runs seed a perf trajectory that CI
// or a human can diff.  Output rows must not depend on any of these flags;
// the serial-vs-parallel bit-identity check in the acceptance criteria
// diffs bench stdout across --threads values.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/profile.h"
#include "runner/result_cache.h"
#include "runner/sweep.h"

namespace qos {

struct BenchOptions {
  std::string bench_name;
  int threads = 1;
  bool use_cache = true;
  std::string cache_dir = "build/.qos_cache";
  std::string json_path;  ///< resolved to BENCH_<name>.json when empty

  bool trace = false;
  std::string trace_out;  ///< output stem; resolved to TRACE_<name> when empty
  std::uint64_t trace_sample = 1;

  /// Engine profiling sink shared by the bench's phases and its runner;
  /// allocated by parse_bench_args (shared_ptr because ProfileCollector
  /// owns a mutex and BenchOptions must stay copyable).
  std::shared_ptr<ProfileCollector> profile;

  /// The cache configured by the flags, or nullptr with --no-cache.
  std::unique_ptr<ResultCache> make_cache() const;

  /// SweepOptions carrying threads, cache, tracing and profiling — the
  /// one-liner that gives every SweepRunner bench the shared flags:
  ///   SweepRunner runner(options.sweep_options(cache.get()));
  SweepOptions sweep_options(ResultCache* cache) const;
};

/// Parse the shared flags; unknown arguments abort with a usage message.
BenchOptions parse_bench_args(int argc, char** argv,
                              const std::string& bench_name);

struct BenchTiming {
  std::string name;
  double wall_seconds = 0;
  std::uint64_t cells = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rows = 0;
  int threads = 1;

  /// Tracing accounting for --trace runs, emitted as a "trace" object in
  /// the manifest.  trace_dropped > 0 means the span ring evicted spans —
  /// silent loss unless it lands in the JSON where CI and humans can see
  /// it.  traced == false omits the object (untraced manifests unchanged).
  bool traced = false;
  std::uint64_t trace_observed = 0;
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_dropped = 0;
};

/// Serialize `timing` (stable key order, fixed formatting).  A non-null,
/// non-empty `profile` adds a "profile" object keyed by phase name.
std::string bench_timing_json(const BenchTiming& timing,
                              const ProfileCollector* profile = nullptr);

/// Write bench_timing_json to options.json_path (or BENCH_<name>.json) and
/// note the path on stderr — stdout stays reserved for the reproduced
/// tables so output diffs are clean.  Includes options.profile's phases.
void write_bench_json(const BenchOptions& options, const BenchTiming& timing);

/// Convenience: assemble the timing from a finished runner and write it.
/// Under --trace this also writes the runner's collected traces to
/// <trace_out>.trace.bin (one QOSTRC02 stream per traced cell) and
/// <trace_out>.perfetto.json (Chrome trace_event JSON), noting both paths
/// on stderr.
void write_bench_json(const BenchOptions& options, const SweepRunner& runner,
                      std::uint64_t rows, double wall_seconds);

/// Monotonic wall clock for bench timing, in seconds.
double bench_now_seconds();

}  // namespace qos
