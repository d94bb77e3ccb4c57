// Hot-path microbenchmark harness: heap backends vs their frozen scan
// references, plus event-simulator throughput.  Emits BENCH_micro.json.
//
// This is the perf baseline for the event-core overhaul, self-timed with no
// benchmark-library dependency so CI can run it anywhere:
//
//   * For each FQ backend (SFQ / WFQ / WF2Q+ / pClock) at 1, 16 and 256
//     flows, steady-state enqueue+dequeue pairs per second through the
//     production heap implementation (per-flow vectors indexed by flow id,
//     head tags in IndexedMinHeaps keyed by flow id) and through the
//     O(flows) linear-scan reference (fq/scan_reference.h) it replaced,
//     plus the speedup ratio.
//   * Simulator events per second (one arrival + one completion = two
//     events) for single-server FCFS and two-server Split runs.
//
// The run aborts if the lazy-allocation contract breaks: an idle
// IndexedMinHeap reset to 2^20 ids must hold zero bytes.
//
// Each measurement repeats --repeats times and keeps the best run (least
// interference).  scripts/check_perf.py compares a fresh BENCH_micro.json
// against the committed bench/BENCH_micro.baseline.json and fails on >25%
// speedup regressions; see README "Perf baseline".
//
// usage: micro_algorithms [--json PATH] [--ops N] [--repeats R]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "args.h"
#include "core/fcfs.h"
#include "core/split.h"
#include "fq/pclock.h"
#include "fq/scan_reference.h"
#include "fq/sfq.h"
#include "fq/wf2q.h"
#include "fq/wfq.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "util/indexed_heap.h"

namespace {

using namespace qos;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Defeats dead-code elimination of the measured loops; never read except to
// keep the optimizer honest.
volatile std::uint64_t g_sink = 0;

struct MicroOptions {
  std::string json_path = "BENCH_micro.json";
  std::uint64_t ops = 200'000;
  int repeats = 5;
};

[[noreturn]] void usage_abort() {
  std::fprintf(stderr,
               "usage: micro_algorithms [--json PATH] [--ops N] "
               "[--repeats R]\n");
  std::exit(2);
}

MicroOptions parse_args(int argc, char** argv) {
  MicroOptions o;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_abort();
      return argv[++i];
    };
    if (std::strcmp(a, "--json") == 0) {
      o.json_path = value();
    } else if (std::strcmp(a, "--ops") == 0) {
      o.ops = bench::parse_number<std::uint64_t>(value(), 1, usage_abort);
    } else if (std::strcmp(a, "--repeats") == 0) {
      o.repeats = bench::parse_number(value(), 1, usage_abort);
    } else {
      usage_abort();
    }
  }
  return o;
}

// Steady-state throughput of one scheduler instance: keep every flow
// backlogged, then alternate enqueue/dequeue so the tag structures stay at
// constant size while being exercised on both sides.  Unit costs make head
// tags collide constantly — the worst case for tie-breaking, and the common
// case for the two-class storage model.
template <typename Sched>
double fq_pairs_per_sec(Sched& s, int flows, std::uint64_t ops) {
  std::uint64_t handle = 0;
  Time now = 0;
  for (int b = 0; b < 4; ++b)
    for (int f = 0; f < flows; ++f) s.enqueue(f, handle++, 1.0, now);
  std::uint64_t sink = 0;
  const double t0 = now_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += 3;
    s.enqueue(static_cast<int>(i % static_cast<std::uint64_t>(flows)),
              handle++, 1.0, now);
    sink += s.dequeue(now)->handle;
  }
  const double elapsed = now_seconds() - t0;
  while (s.dequeue(now)) {
  }
  g_sink = g_sink ^ sink;
  return static_cast<double>(ops) / elapsed;
}

template <typename MakeSched>
double best_fq_rate(MakeSched make, int flows, const MicroOptions& o) {
  double best = 0;
  for (int r = 0; r < o.repeats; ++r) {
    auto s = make(flows);
    best = std::max(best, fq_pairs_per_sec(s, flows, o.ops));
  }
  return best;
}

std::vector<PClockSla> uniform_slas(int flows) {
  return std::vector<PClockSla>(static_cast<std::size_t>(flows), PClockSla{});
}

struct FqCell {
  double heap_ops_per_sec = 0;
  double scan_ops_per_sec = 0;
  double speedup() const { return heap_ops_per_sec / scan_ops_per_sec; }
};

struct FqRow {
  const char* name;
  FqCell cells[3];  ///< at kFlowCounts
};

constexpr int kFlowCounts[3] = {1, 16, 256};

const Trace& sim_trace() {
  static const Trace trace = [] {
    WorkloadSpec spec;
    spec.states = {{400, 1.0}, {1200, 0.4}};
    spec.batches = {.batches_per_sec = 0.2,
                    .mean_size = 10,
                    .spread_us = 2'000,
                    .giant_prob = 0.05,
                    .giant_factor = 3};
    return generate_workload(spec, 30 * kUsPerSec, 4242);
  }();
  return trace;
}

// Events per second through the full simulator loop (arrival + completion
// per request).
template <typename RunOnce>
double best_sim_events_per_sec(const MicroOptions& o, RunOnce run) {
  const double events = 2.0 * static_cast<double>(sim_trace().size());
  double best = 0;
  for (int r = 0; r < o.repeats; ++r) {
    const double t0 = now_seconds();
    run();
    best = std::max(best, events / (now_seconds() - t0));
  }
  return best;
}

void json_fq_cell(std::FILE* f, int flows, const FqCell& c, bool last) {
  std::fprintf(f,
               "    \"flows_%d\": {\"heap_ops_per_sec\": %.0f, "
               "\"scan_ops_per_sec\": %.0f, \"speedup\": %.2f}%s\n",
               flows, c.heap_ops_per_sec, c.scan_ops_per_sec, c.speedup(),
               last ? "" : ",");
}

// Hard contract checked in-process: a lazily grown position table is what
// keeps an idle heap free whatever its id bound, and throughput gating
// would not see it break.
constexpr int kLazyProbeIds = 1 << 20;

bool check_lazy_heap() {
  IndexedMinHeap<double> probe;
  probe.reset(kLazyProbeIds);
  if (probe.memory_bytes() == 0) return true;
  std::fprintf(stderr,
               "micro_algorithms: lazy-heap contract broken — "
               "reset(%d) allocated %zu bytes (expected 0)\n",
               kLazyProbeIds, probe.memory_bytes());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const MicroOptions options = parse_args(argc, argv);

  FqRow rows[4] = {{"sfq", {}}, {"wfq", {}}, {"wf2q", {}}, {"pclock", {}}};
  for (int fi = 0; fi < 3; ++fi) {
    const int flows = kFlowCounts[fi];
    const std::vector<double> weights(static_cast<std::size_t>(flows), 1.0);
    rows[0].cells[fi].heap_ops_per_sec = best_fq_rate(
        [&](int) { return SfqScheduler(weights); }, flows, options);
    rows[0].cells[fi].scan_ops_per_sec = best_fq_rate(
        [&](int) { return scanref::ScanSfqScheduler(weights); }, flows,
        options);
    rows[1].cells[fi].heap_ops_per_sec = best_fq_rate(
        [&](int) { return WfqScheduler(weights); }, flows, options);
    rows[1].cells[fi].scan_ops_per_sec = best_fq_rate(
        [&](int) { return scanref::ScanWfqScheduler(weights); }, flows,
        options);
    rows[2].cells[fi].heap_ops_per_sec = best_fq_rate(
        [&](int) { return Wf2qPlusScheduler(weights); }, flows, options);
    rows[2].cells[fi].scan_ops_per_sec = best_fq_rate(
        [&](int) { return scanref::ScanWf2qPlusScheduler(weights); }, flows,
        options);
    rows[3].cells[fi].heap_ops_per_sec = best_fq_rate(
        [&](int f) { return PClockScheduler(uniform_slas(f)); }, flows,
        options);
    rows[3].cells[fi].scan_ops_per_sec = best_fq_rate(
        [&](int f) { return scanref::ScanPClockScheduler(uniform_slas(f)); },
        flows, options);
  }

  const double fcfs_events = best_sim_events_per_sec(options, [] {
    FcfsScheduler fcfs;
    ConstantRateServer server(600);
    g_sink = g_sink ^ simulate(sim_trace(), fcfs, server).completions.size();
  });
  const double split_events = best_sim_events_per_sec(options, [] {
    SplitScheduler split(500, 10'000);
    ConstantRateServer primary(500), overflow(100);
    Server* servers[] = {&primary, &overflow};
    g_sink =
        g_sink ^ simulate(sim_trace(), split, servers).completions.size();
  });

  // Human-readable table on stdout.
  std::printf("%-8s %8s %14s %14s %8s\n", "backend", "flows", "heap ops/s",
              "scan ops/s", "speedup");
  for (const FqRow& row : rows) {
    for (int fi = 0; fi < 3; ++fi) {
      const FqCell& c = row.cells[fi];
      std::printf("%-8s %8d %14.0f %14.0f %7.2fx\n", row.name, kFlowCounts[fi],
                  c.heap_ops_per_sec, c.scan_ops_per_sec, c.speedup());
    }
  }
  std::printf("simulator fcfs  %14.0f events/s\n", fcfs_events);
  std::printf("simulator split %14.0f events/s\n", split_events);

  if (!check_lazy_heap()) return 1;

  std::FILE* f = std::fopen(options.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_algorithms: cannot write %s\n",
                 options.json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"name\": \"micro\",\n");
  std::fprintf(f, "  \"ops\": %llu,\n",
               static_cast<unsigned long long>(options.ops));
  std::fprintf(f, "  \"repeats\": %d,\n", options.repeats);
  std::fprintf(f, "  \"schedulers\": {\n");
  for (std::size_t r = 0; r < 4; ++r) {
    std::fprintf(f, "  \"%s\": {\n", rows[r].name);
    for (int fi = 0; fi < 3; ++fi)
      json_fq_cell(f, kFlowCounts[fi], rows[r].cells[fi], fi == 2);
    std::fprintf(f, "  }%s\n", r == 3 ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"simulator\": {\"fcfs_events_per_sec\": %.0f, "
               "\"split_events_per_sec\": %.0f}\n",
               fcfs_events, split_events);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "micro_algorithms: wrote %s\n",
               options.json_path.c_str());
  return 0;
}
