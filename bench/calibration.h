// Machine-speed reference for the bench harnesses' normalized throughputs.
//
// A harness divides its measured rate by calibration_ops_per_sec(), taken
// in-process moments before its runs, so the ratio cancels most of the raw
// speed of the machine and check_perf.py can gate it against a baseline
// recorded elsewhere.  The loop is fixed work unrelated to the code under
// test: one steady-clock read, one uncontended lock/unlock and a counter
// update per op.  Keep its body unchanged: the committed baselines
// (bench/BENCH_online.baseline.json, bench/BENCH_stream.baseline.json) are
// normalized by exactly this loop.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace qos::bench {

inline volatile std::uint64_t g_sink = 0;

/// Best of `repeats` passes over the loop, in ops per second.
inline double calibration_ops_per_sec(int repeats) {
  constexpr std::uint64_t kOps = 2'000'000;
  std::mutex m;
  double best = 0;
  for (int r = 0; r < repeats; ++r) {
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const auto now = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lock(m);
      acc += static_cast<std::uint64_t>(now.time_since_epoch().count());
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    g_sink = g_sink ^ acc;
    best = std::max(best, static_cast<double>(kOps) / elapsed);
  }
  return best;
}

}  // namespace qos::bench
