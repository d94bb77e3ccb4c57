// Shared types of the benchmark binary: run options, the report a workload
// returns, and the small helpers every workload uses (seed derivation,
// order-sensitive digests, medians, peak RSS).
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "util/time.h"

namespace perfbench {

/// Every workload's deadline δ and QoS fraction f.
inline constexpr qos::Time kDelta = qos::from_ms(10);
inline constexpr double kFraction = 0.90;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;  ///< traced runs write sampled spans here
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run):
  /// the result line's "metrics" object.
  std::vector<Metric> metrics;
  /// Per-layer figures of a traced run, by name; main.cpp prints every
  /// name of its layer list, 0 where the workload leaves a layer idle.
  std::map<std::string, double> layers;
  /// Figures printed for people before the result line (sample counts,
  /// per-workload throughput names, Q1/Q2 counts).
  std::vector<Metric> info;
  /// Workload parameters, recorded in the provenance line.
  std::vector<std::string> params;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    info.push_back({name, value, unit});
  }
};

Report run_sim(const Options& o, bool bursty);
Report run_online(const Options& o);

/// Small-size correctness and determinism self-checks (see main.cpp).
/// Each appends a line per comparison to `log` and returns false on any
/// mismatch.
bool check_sim(bool bursty, std::uint64_t seed, int nproc,
               std::vector<std::string>& log);
bool check_online(std::uint64_t seed, int nproc,
                  std::vector<std::string>& log);

/// Per-tenant seed derived from the workload seed (splitmix64 of both).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

std::uint64_t mix64(std::uint64_t x);

/// Order-sensitive 64-bit fold of a sequence; compared across runs as the
/// witness that two runs produced the same sequence.
struct Fold {
  std::uint64_t h = 0x6a09e667f3bcc909ull;
  void add(std::uint64_t x) { h = mix64(h ^ mix64(x + 0x9e3779b97f4a7c15ull)); }
};

/// p-quantile (0..1) by linear interpolation between closest ranks.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Set-up repetitions per run; setup_s is their median.  The first runs
/// before the timed passes; the others are spread evenly over the timed
/// phase (results discarded), so the median samples the whole run rather
/// than one moment of a shared host.
inline constexpr std::size_t kSetups = 5;

/// True when the next set-up repetition is due, after `measured` of
/// `seconds` timed seconds with `done` repetitions made.
inline bool setup_due(std::size_t done, double measured, double seconds) {
  return done < kSetups &&
         measured >= seconds * static_cast<double>(done) / kSetups;
}
double peak_rss_mib();

/// Nanoseconds one fixed piece of reference work takes on the calling
/// thread right now (see main.cpp).  The work never changes, so it measures
/// the host's momentary speed, not the code under test.
std::int64_t reference_ns();
/// Mean of reference_ns() run on `threads` threads at once, the calling
/// thread included: the momentary speed of as many cores as a pass uses.
double reference_ns_on(int threads);

/// What reference_ns() reads on an idle core of the host the bounds were
/// set on (4-vCPU Intel Xeon VM; it reads 1.3-2.2 ms there under load).
inline constexpr double kReferenceNs = 1.5e6;

/// Throughput scaled to a host whose reference work takes kReferenceNs:
/// `rate` measured in a pass bracketed by reference readings averaging
/// `ref_ns`.  On a shared host the speed of a core drifts 10-45% over
/// seconds to minutes, with the load of the host's other tenants; the
/// reference slows with it, so the ratio keeps what the code does.
inline double reference_rate(double rate, double ref_ns) {
  return rate * ref_ns / kReferenceNs;
}

/// Runs `f` and returns the seconds it took, scaled to a host whose
/// reference work takes kReferenceNs: reference work on `threads` threads
/// is timed before and after it.  Set-up follows the host's speed about half
/// as strongly as the reference does (log-log slope 0.43 for sim-steady's
/// set-up, 0.89 for its passes, on the host named at kReferenceNs), so it is
/// scaled by the square root of the reference ratio.
template <class F>
double reference_seconds(int threads, F&& f) {
  const double r0 = reference_ns_on(threads);
  const std::int64_t t0 = now_ns();
  f();
  const double s = static_cast<double>(now_ns() - t0) / 1e9;
  return s * std::sqrt(kReferenceNs / (0.5 * (r0 + reference_ns_on(threads))));
}

/// Worker threads each workload may use on a machine with `nproc` cores.
inline int sim_shards(int nproc) { return nproc > 1 ? nproc - 1 : 1; }
/// Two callers, not one per core: with every core of a shared host busy,
/// a caller's speed swings with the host's other tenants far more than
/// the reference work tracks (per-run spread 0.08-0.25 at four callers on
/// four cores, 0.03-0.05 at two).
inline int online_callers(int nproc) { return nproc < 2 ? nproc : 2; }
/// Threads a workload runs at once, the calling thread included.
inline int threads_used(const std::string& workload, int nproc) {
  if (workload == "sim-bursty")
    return sim_shards(nproc) + (nproc > 1 ? 1 : 0);  // + the drain thread
  if (workload == "online-admit") return online_callers(nproc);
  return 1;
}

}  // namespace perfbench
