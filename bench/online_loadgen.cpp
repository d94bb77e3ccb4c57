// Replay harness for online::Shaper.  Emits BENCH_online.json.
//
// Measures the admission path as the paper deploys it: each shaped stream
// has its own Shaper with one caller.  --threads T callers each replay the
// same arrivals through a Shaper of their own in virtual time
// (online::replay_trace: admit, poll_dispatch and on_completion at every
// instant of the simulator's own event loop), per policy.  The arrivals are
// the first --requests of the --workload preset stream or of the --spc
// file, so --requests counts per caller.
//
// The two output channels separate the two claims:
//
//   stdout   one line per policy: decisions, Q1, Q2 and a digest of the
//            decisions and completions.  Every caller of every repeat must
//            produce the same digest (exit 1 otherwise) and nothing here
//            depends on timing, so stdout is byte-identical at any
//            --threads; CI `cmp`s --threads 1 against 4.
//
//   stderr   decisions/s — callers x requests / wall time of the replays,
//   --json   best of --repeats — and `normalized`, decisions/s divided by
//            the in-process machine-speed reference (bench/calibration.h).
//            scripts/check_perf.py --online gates `normalized` against
//            bench/BENCH_online.baseline.json; see README "Perf baseline".
//
// Only the replays are timed; the digests are taken afterwards.
//
// usage: online_loadgen [--policy fcfs|split|fq|miser|all] [--workload WS|FT|OM]
//                       [--spc PATH] [--requests N] [--threads T] [--seed S]
//                       [--repeats R] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "args.h"
#include "calibration.h"
#include "core/capacity.h"
#include "online/replay.h"
#include "online/shaper.h"
#include "runner/hash.h"
#include "runner/thread_pool.h"
#include "stream/gen_stream.h"
#include "trace/presets.h"
#include "trace/spc.h"
#include "trace/trace.h"

namespace {

using namespace qos;
using namespace qos::online;

struct Options {
  std::string policy = "all";
  std::string workload = "WS";
  std::string spc_path;
  std::uint64_t requests = 200'000;  ///< per caller
  int threads = 4;
  std::uint64_t seed = 0;
  int repeats = 3;
  std::string json_path = "BENCH_online.json";
};

[[noreturn]] void usage_abort() {
  std::fprintf(
      stderr,
      "usage: online_loadgen [--policy fcfs|split|fq|miser|all]\n"
      "                      [--workload WS|FT|OM] [--spc PATH]\n"
      "                      [--requests N] [--threads T] [--seed S]\n"
      "                      [--repeats R] [--json PATH]\n");
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
    if (std::strcmp(a, "--policy") == 0) {
      o.policy = value();
    } else if (std::strcmp(a, "--workload") == 0) {
      o.workload = value();
    } else if (std::strcmp(a, "--spc") == 0) {
      o.spc_path = value();
    } else if (std::strcmp(a, "--requests") == 0) {
      o.requests =
          bench::parse_number<std::uint64_t>(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--threads") == 0) {
      o.threads = bench::parse_number(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--seed") == 0) {
      o.seed = bench::parse_number<std::uint64_t>(value(), 0, usage_abort);
    } else if (std::strcmp(a, "--repeats") == 0) {
      o.repeats = bench::parse_number(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--json") == 0) {
      o.json_path = value();
    } else {
      usage_abort();
    }
  }
  return o;
}

struct PolicyEntry {
  const char* key;
  Policy policy;
};

constexpr PolicyEntry kPolicies[] = {
    {"fcfs", Policy::kFcfs},
    {"split", Policy::kSplit},
    {"fq", Policy::kFairQueue},
    {"miser", Policy::kMiser},
};

Trace load_arrivals(const Options& o) {
  std::vector<Request> requests;
  if (!o.spc_path.empty()) {
    auto loaded = try_load_spc_file(o.spc_path);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "online_loadgen: cannot load SPC trace %s\n",
                   o.spc_path.c_str());
      std::exit(1);
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(loaded->size(), o.requests));
    requests.assign(loaded->begin(), loaded->begin() + n);
    return Trace(std::move(requests));
  }
  Workload w = Workload::kWebSearch;
  if (o.workload == "WS") {
    w = Workload::kWebSearch;
  } else if (o.workload == "FT") {
    w = Workload::kFinTrans;
  } else if (o.workload == "OM") {
    w = Workload::kOpenMail;
  } else {
    usage_abort();
  }
  const auto source = stream::make_preset_stream(w, 0, o.seed);
  while (requests.size() < o.requests) {
    const std::optional<Request> r = source->next();
    if (!r.has_value()) break;
    requests.push_back(*r);
  }
  return Trace(std::move(requests));
}

Digest digest_of(const ReplayOutcome& out) {
  ContentHasher h;
  for (const Decision& d : out.decisions)
    h.u64(d.seq)
        .u64(static_cast<std::uint64_t>(d.admit))
        .u64(d.demoted ? 1 : 0)
        .i64(d.deadline)
        .i64(d.depth)
        .i64(d.max_q1);
  for (const CompletionRecord& r : out.sim.completions)
    h.u64(r.seq)
        .u64(r.client)
        .i64(r.arrival)
        .i64(r.start)
        .i64(r.finish)
        .u64(static_cast<std::uint64_t>(r.klass))
        .u64(r.server);
  return h.digest();
}

struct PolicyResult {
  const char* key = "";
  std::uint64_t q1 = 0;
  std::uint64_t q2 = 0;
  Digest digest;
  double decisions_per_sec = 0;  ///< the best repeat
};

PolicyResult run_policy(const PolicyEntry& e, const Options& o,
                        const Trace& arrivals, double cmin, ThreadPool& pool) {
  ShaperOptions so;
  so.shaping.policy = e.policy;
  so.cmin_iops = cmin;
  const auto callers = static_cast<std::size_t>(o.threads);

  PolicyResult result;
  result.key = e.key;
  std::optional<Digest> agreed;
  for (int r = 0; r < o.repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<ReplayOutcome> outs = pool.parallel_map(
        callers, [&](std::size_t) { return replay_trace(arrivals, so); });
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result.decisions_per_sec = std::max(
        result.decisions_per_sec,
        static_cast<double>(callers * arrivals.size()) / wall);

    for (const ReplayOutcome& out : outs) {
      const Digest d = digest_of(out);
      if (agreed.has_value() && !(d == *agreed)) {
        std::fprintf(stderr,
                     "online_loadgen: %s: callers disagree (%s vs %s)\n",
                     e.key, d.to_hex().c_str(), agreed->to_hex().c_str());
        std::exit(1);
      }
      agreed = d;
    }
    if (r == 0) {
      for (const Decision& d : outs.front().decisions)
        ++(d.admit == Admit::kQ1 ? result.q1 : result.q2);
    }
  }
  result.digest = *agreed;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);

  std::vector<PolicyEntry> selected;
  for (const PolicyEntry& e : kPolicies)
    if (options.policy == "all" || options.policy == e.key)
      selected.push_back(e);
  if (selected.empty()) usage_abort();

  const Trace arrivals = load_arrivals(options);
  if (arrivals.empty()) {
    std::fprintf(stderr, "online_loadgen: no arrivals\n");
    return 1;
  }
  // One profiling pass shared by every policy, exactly what an offline
  // planner would hand an online deployment.
  ShapingConfig probe_config;
  const double cmin =
      min_capacity(arrivals, probe_config.fraction, probe_config.delta)
          .cmin_iops;
  const double calibration = bench::calibration_ops_per_sec(options.repeats);
  std::fprintf(stderr,
               "online_loadgen: %zu arrivals per caller, %d callers, cmin "
               "%.0f IOPS, calibration %.0f ops/s\n",
               arrivals.size(), options.threads, cmin, calibration);

  ThreadPool pool(options.threads);
  std::vector<PolicyResult> results;
  for (const PolicyEntry& e : selected) {
    const PolicyResult r = run_policy(e, options, arrivals, cmin, pool);
    std::printf("%-6s decisions %8zu  q1 %8llu  q2 %8llu  digest %s\n", r.key,
                arrivals.size(), static_cast<unsigned long long>(r.q1),
                static_cast<unsigned long long>(r.q2),
                r.digest.to_hex().c_str());
    std::fprintf(stderr, "online_loadgen: %-6s %12.0f dec/s  normalized %.4f\n",
                 r.key, r.decisions_per_sec,
                 r.decisions_per_sec / calibration);
    results.push_back(r);
  }

  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "online_loadgen: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"name\": \"online\",\n");
  std::fprintf(f, "  \"requests\": %zu,\n", arrivals.size());
  std::fprintf(f, "  \"threads\": %d,\n", options.threads);
  std::fprintf(f, "  \"workload\": \"%s\",\n",
               options.spc_path.empty() ? options.workload.c_str() : "spc");
  std::fprintf(f, "  \"calibration_ops_per_sec\": %.0f,\n", calibration);
  std::fprintf(f, "  \"policies\": {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"replay\": {\"decisions_per_sec\": %.0f, "
                 "\"normalized\": %.4f, \"q1\": %llu, \"q2\": %llu, "
                 "\"digest\": \"%s\"}\n"
                 "  }%s\n",
                 r.key, r.decisions_per_sec, r.decisions_per_sec / calibration,
                 static_cast<unsigned long long>(r.q1),
                 static_cast<unsigned long long>(r.q2),
                 r.digest.to_hex().c_str(),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "online_loadgen: wrote %s\n",
               options.json_path.c_str());
  return 0;
}
