// perfbench — the repository benchmark binary (driven by perfbench/run.py).
//
//   perfbench --workload sim-steady|sim-bursty|online-admit --seed N
//             --seconds S --trace 0|1 [--spans-out PATH] [--source-id ID]
//   perfbench --check [--seed N]
//
// A run sets the workload up, measures passes over the same seeded inputs
// for S seconds (timing four more set-ups spread over the run; setup_s is
// the median of five; throughput and set-up time are scaled by reference
// work timed around each pass and set-up, see reference_rate), checks every
// pass's outputs, runs the workload's small-size self-check, and prints:
//
//   provenance {...}        source id, compiler, flags, build type, nproc,
//                           seed and workload parameters
//   metric <name> <value> <unit>   one line per figure, including those
//                           that are not in the result object
//   check ok|FAIL ...       self-check comparisons
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
//
// With --trace 0 the result's metrics are the end-to-end metrics; with
// --trace 1 they are the per-layer metrics of a traced run (layer timing
// through the decorators in decorators.h), and sampled spans go to
// --spans-out.  --check runs only the self-checks, for all three workloads,
// and exits non-zero on any mismatch:
//   * sim-* completion (and event) digests at shards 1 and nproc - 1;
//   * online-admit per-tenant decision digests at 1 and min(2, nproc)
//     callers, and against replay_trace for the same tenant;
//   * traced against untraced digests, for every workload.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.h"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t s = mix64(mix64(seed) ^ (index + 1));
  return s == 0 ? 1 : s;  // 0 selects a generator's built-in default seed
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mib() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss would do
  // on a freshly forked process, but Linux carries it across execve, so a
  // launcher's own footprint (python3 run.py) would leak into the figure.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t reference_ns() {
  // A binary min-heap of 8192 keys (64 KiB, L2-resident), popped and
  // refilled with LCG keys: data-dependent branches and loads, like the
  // schedulers' queues.  Self-contained so no change to ../src moves it.
  constexpr std::size_t kKeys = 8192;
  constexpr int kOps = 40000;
  thread_local std::vector<std::uint64_t> heap(kKeys);
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  for (std::uint64_t& k : heap) k = x = x * 6364136223846793005ull + 1;
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kOps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    heap.back() += x >> 44;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const std::int64_t ns = now_ns() - t0;
  return heap.front() == 0 ? ns + 1 : ns;  // keeps the loop observable
}

double reference_ns_on(int threads) {
  std::vector<std::int64_t> ns(static_cast<std::size_t>(std::max(1, threads)));
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < ns.size(); ++i)
    others.emplace_back([&ns, i] { ns[i] = reference_ns(); });
  ns[0] = reference_ns();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (const std::int64_t v : ns) sum += static_cast<double>(v);
  return sum / static_cast<double>(ns.size());
}

namespace {

// Per-layer metrics of a traced run, in print order.  Every workload prints
// every one; a layer the workload leaves idle reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"trace.gen_calls", "count"},       {"trace.gen_ns", "ns"},
      {"stream.merge_ns", "ns"},          {"stream.pull_s", "s"},
      {"sharded.windows", "count"},       {"sharded.barrier_s", "s"},
      {"sharded.lane_busy_s", "s"},       {"sharded.worker_util", "ratio"},
      {"sharded.emit_s", "s"}};
  static const std::vector<std::string> sched_names = [] {
    std::vector<std::string> n;
    for (const char* p : kPolicyNames)
      for (const char* f : {".arrival_ns", ".next_for_ns", ".complete_ns",
                            ".next_for_calls", ".next_for_hit"})
        n.push_back(std::string("sched.") + p + f);
    return n;
  }();
  for (const std::string& n : sched_names) {
    const bool calls = n.ends_with("_calls");
    const bool hit = n.ends_with("_hit");
    m.push_back({n.c_str(), calls ? "count" : hit ? "ratio" : "ns"});
  }
  const std::vector<LayerMetric> rest = {
      {"server.calls", "count"},
      {"server.service_ns", "ns"},
      {"engine.self_s", "s"},
      {"obs.events", "count"},
      {"obs.sink_ns", "ns"},
      {"obs.trace_bytes_per_req", "B/req"},
      {"shaper.admit_ns", "ns"},
      {"shaper.admit_self_ns", "ns"},
      {"shaper.poll_ns", "ns"},
      {"shaper.poll_empty_frac", "ratio"},
      {"shaper.complete_ns", "ns"},
      {"plan.s", "s"},
      {"plan.probes", "count"},
      {"plan.ns_per_probe_req", "ns"},
      {"alloc.trace_per_req", "allocs/req"},
      {"alloc.stream_per_req", "allocs/req"},
      {"alloc.sched_per_req", "allocs/req"},
      {"alloc.server_per_req", "allocs/req"},
      {"alloc.engine_per_req", "allocs/req"},
      {"alloc.obs_per_req", "allocs/req"},
      {"alloc.shaper_per_req", "allocs/req"},
      {"alloc.plan_per_req", "allocs/req"},
      {"share.stream", "ratio"},
      {"share.barrier", "ratio"},
      {"share.lanes", "ratio"},
      {"traced.wall_s", "s"},
      {"trace_overhead", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int detect_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    true;
#else
    false;
#endif
#else
    false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim-steady|sim-bursty|online-admit"
               " --seed N --seconds S --trace 0|1 [--spans-out PATH]"
               " [--source-id ID]\n"
               "       perfbench --check [--seed N]\n",
               why);
  std::exit(2);
}

struct Args {
  Options run;
  bool check = false;
  std::string source_id = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  a.run.workload.clear();
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    char* end = nullptr;
    if (flag == "--workload") {
      a.run.workload = value();
    } else if (flag == "--seed") {
      const std::string v = value();
      a.run.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      const std::string v = value();
      a.run.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.run.seconds > 0))
        usage("--seconds takes a positive number");
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.run.trace = v == "1";
      have_trace = true;
    } else if (flag == "--spans-out") {
      a.run.spans_out = value();
    } else if (flag == "--source-id") {
      a.source_id = value();
    } else if (flag == "--check") {
      a.check = true;
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (!a.check) {
    if (a.run.workload != "sim-steady" && a.run.workload != "sim-bursty" &&
        a.run.workload != "online-admit")
      usage("--workload must be sim-steady, sim-bursty or online-admit");
    if (!have_seconds || !have_trace) usage("--seconds and --trace are required");
  }
  return a;
}

bool self_check(const std::string& workload, std::uint64_t seed, int nproc,
                std::vector<std::string>& log) {
  if (workload == "sim-steady") return check_sim(false, seed, nproc, log);
  if (workload == "sim-bursty") return check_sim(true, seed, nproc, log);
  return check_online(seed, nproc, log);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Options o = args.run;
  o.nproc = detect_nproc();

  if (args.check) {
    std::vector<std::string> log;
    bool ok = true;
    for (const char* w : {"sim-steady", "sim-bursty", "online-admit"})
      ok = self_check(w, o.seed, o.nproc, log) && ok;
    for (const std::string& line : log) std::printf("check %s\n", line.c_str());
    std::printf("check %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }

  // Build guard: timing an unoptimized or sanitized build, or running more
  // threads than cores, measures the harness rather than the code.
  if (!kOptimized) usage("refusing to time a build without optimization");
  if (kSanitized) usage("refusing to time a sanitizer build");
  if (threads_used(o.workload, o.nproc) > o.nproc)
    usage("workload would run more threads than nproc");

  Report report = o.workload == "online-admit"
                      ? run_online(o)
                      : run_sim(o, o.workload == "sim-bursty");
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  report.note("failed_frac", failed_frac, "ratio");

  if (o.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      auto it = report.layers.find(m.name);
      report.metric(m.name, it == report.layers.end() ? 0.0 : it->second,
                    m.unit);
    }
    if (!o.spans_out.empty()) {
      const long spans = write_spans(o.spans_out);
      if (spans < 0) report.fail("cannot write spans to " + o.spans_out);
      report.note("spans_written", static_cast<double>(spans), "count");
    }
  }

  std::vector<std::string> check_log;
  if (!self_check(o.workload, o.seed, o.nproc, check_log))
    report.fail("self-check mismatch");
  if (report.failed > 0)
    report.fail(std::to_string(report.failed) +
                " requests without exactly one valid outcome");

  std::string params;
  for (const std::string& p : report.params) {
    const auto eq = p.find('=');
    if (!params.empty()) params += ",";
    params.append("\"").append(json_escape(p.substr(0, eq)));
    params.append("\":\"").append(json_escape(p.substr(eq + 1))).append("\"");
  }
  std::printf(
      "provenance {\"source\":\"%s\",\"compiler\":\"%s\",\"flags\":\"%s\","
      "\"build_type\":\"%s\",\"nproc\":%d,\"threads\":%d,\"seed\":%llu,"
      "\"workload\":\"%s\",\"seconds\":%s,\"trace\":%d,\"params\":{%s}}\n",
      json_escape(args.source_id).c_str(), json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(PERFBENCH_CXX_FLAGS).c_str(), PERFBENCH_BUILD_TYPE, o.nproc,
      threads_used(o.workload, o.nproc),
      static_cast<unsigned long long>(o.seed), o.workload.c_str(),
      number(o.seconds).c_str(), o.trace ? 1 : 0, params.c_str());
  for (const Metric& m : report.metrics)
    std::printf("metric %-28s %-24s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  for (const Metric& m : report.info)
    std::printf("metric %-28s %-24s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str());
  for (const std::string& line : check_log)
    std::printf("check %s\n", line.c_str());
  for (const std::string& e : report.errors)
    std::fprintf(stderr, "perfbench: error: %s\n", e.c_str());

  std::string metrics;
  for (const Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
