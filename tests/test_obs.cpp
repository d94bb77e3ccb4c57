#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/span_map.h"
#include "util/rng.h"

namespace qos {
namespace {

TEST(CounterGauge, Basics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(1.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (Time v = 0; v < LatencyHistogram::kSubBuckets; ++v) h.record(v);
  // Unit buckets: every quantile is an exactly recorded value.
  EXPECT_EQ(h.quantile(0), 0);
  EXPECT_EQ(h.quantile(0.5), 15);
  EXPECT_EQ(h.quantile(1.0), 31);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
}

TEST(LatencyHistogram, BucketBoundsContainValue) {
  for (Time v : {0, 1, 31, 32, 33, 100, 1023, 1024, 65537, 1'000'000'000}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_LE(LatencyHistogram::bucket_lower(idx), v) << v;
    EXPECT_LT(v, LatencyHistogram::bucket_upper(idx)) << v;
  }
  // Bucket boundaries tile the line: upper(i) == lower(i+1).
  for (std::size_t i = 0; i < 400; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(i),
              LatencyHistogram::bucket_lower(i + 1))
        << i;
  }
}

TEST(LatencyHistogram, QuantileAccuracyWithinBucketResolution) {
  // Deterministic pseudo-uniform values across several octaves.
  std::vector<Time> values;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<Time>(x % 5'000'000));  // up to 5 s in us
  }
  LatencyHistogram h;
  for (Time v : values) h.record(v);
  std::sort(values.begin(), values.end());

  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), values.front());
  EXPECT_EQ(h.max(), values.back());

  double sum = 0;
  for (Time v : values) sum += static_cast<double>(v);
  EXPECT_NEAR(h.mean_us(), sum / static_cast<double>(values.size()), 1e-6);

  for (double p : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    const Time exact = values[rank == 0 ? 0 : rank - 1];
    const Time approx = h.quantile(p);
    // Reported value never under-estimates and stays within one sub-bucket
    // (1/32 relative) of the exact order statistic.
    EXPECT_GE(approx, exact) << p;
    EXPECT_LE(approx - exact,
              exact / LatencyHistogram::kSubBuckets + 1)
        << p;
  }
}

TEST(LatencyHistogram, EmptyAndNegative) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.max(), 0);
  h.record(-5);  // clamped, not fatal
  EXPECT_EQ(h.min(), 0);
}

TEST(LatencyHistogram, EmptyGuardsReportNulloptNotSentinel) {
  // quantile()/cdf() keep their documented 0 sentinels on an empty
  // histogram; the try_ variants distinguish "no samples" from "0 us".
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0);
  EXPECT_EQ(h.cdf(1000), 0.0);
  EXPECT_EQ(h.try_quantile(0.99), std::nullopt);
  EXPECT_EQ(h.try_cdf(1000), std::nullopt);

  h.record(0);  // a real 0-us sample is NOT "empty"
  ASSERT_TRUE(h.try_quantile(0.5).has_value());
  EXPECT_EQ(*h.try_quantile(0.5), 0);
  ASSERT_TRUE(h.try_cdf(0).has_value());
  EXPECT_DOUBLE_EQ(*h.try_cdf(0), 1.0);
}

TEST(LatencyHistogram, CdfMatchesSamplesAtBucketGranularity) {
  LatencyHistogram h;
  for (Time v : {5, 10, 10, 20, 30}) h.record(v);
  EXPECT_DOUBLE_EQ(h.cdf(-1), 0.0);   // below every sample
  EXPECT_DOUBLE_EQ(h.cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(5), 0.2);    // unit buckets below 32 are exact
  EXPECT_DOUBLE_EQ(h.cdf(10), 0.6);
  EXPECT_DOUBLE_EQ(h.cdf(19), 0.6);
  EXPECT_DOUBLE_EQ(h.cdf(20), 0.8);
  EXPECT_DOUBLE_EQ(h.cdf(30), 1.0);   // at max and beyond: exactly 1
  EXPECT_DOUBLE_EQ(h.cdf(1'000'000), 1.0);

  // cdf and quantile are (bucket-granularity) inverses: walking the CDF up
  // to quantile(p) accumulates at least p of the mass.
  for (double p : {0.2, 0.5, 0.8, 1.0})
    EXPECT_GE(h.cdf(h.quantile(p)), p) << p;
}

TEST(OccupancySeries, TimeWeightedMean) {
  OccupancySeries s;
  EXPECT_TRUE(s.empty());
  s.update(0, 2);
  s.update(10, 5);
  s.update(20, 0);
  // value 2 over [0,10), value 5 over [10,20): mean = (20 + 50) / 20.
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.max(), 5);
  EXPECT_EQ(s.current(), 0);
  EXPECT_EQ(s.duration(), 20);
  // Extending to t=40 adds 20 ticks of value 0.
  EXPECT_DOUBLE_EQ(s.mean_until(40), 70.0 / 40.0);
}

TEST(OccupancySeries, SpikesBetweenUpdatesAreWeightedByDuration) {
  OccupancySeries s;
  s.update(0, 0);
  s.update(100, 1000);  // brief spike...
  s.update(101, 0);     // ...lasting one tick
  s.update(201, 0);
  EXPECT_EQ(s.max(), 1000);
  EXPECT_NEAR(s.mean(), 1000.0 / 201.0, 1e-9);
}

TEST(MetricRegistry, NamesAreStableIdentities) {
  MetricRegistry r;
  Counter& a = r.counter("x");
  a.add(3);
  // Same name, same instance — even after unrelated insertions.
  r.counter("y").add(1);
  r.histogram("h").record(7);
  r.occupancy("o").update(0, 1);
  EXPECT_EQ(&r.counter("x"), &a);
  EXPECT_EQ(r.counter("x").value(), 3u);

  EXPECT_EQ(r.find_counter("x"), &a);
  EXPECT_EQ(r.find_counter("absent"), nullptr);
  EXPECT_EQ(r.find_gauge("absent"), nullptr);
  EXPECT_EQ(r.find_histogram("absent"), nullptr);
  EXPECT_EQ(r.find_occupancy("absent"), nullptr);
}

TEST(Sinks, CountingAndRecording) {
  RecordingSink sink;
  Probe probe(&sink);
  ASSERT_TRUE(probe.enabled());
  probe.emit({.time = 5, .seq = 1, .kind = EventKind::kAdmit});
  probe.emit({.time = 6, .seq = 2, .kind = EventKind::kReject});
  probe.emit({.time = 7, .seq = 1, .kind = EventKind::kDispatch});
  EXPECT_EQ(sink.count(EventKind::kAdmit), 1u);
  EXPECT_EQ(sink.count(EventKind::kReject), 1u);
  EXPECT_EQ(sink.count(EventKind::kCompletion), 0u);
  EXPECT_EQ(sink.total(), 3u);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[1].seq, 2u);

  Probe disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.emit({.time = 1});  // must be a no-op
}

TEST(Merge, CounterAndGaugeAdd) {
  Counter a, b;
  a.add(5);
  b.add(37);
  a.merge(b);
  EXPECT_EQ(a.value(), 42u);

  Gauge x, y;
  x.set(1.5);
  y.set(-0.5);
  x.merge(y);
  EXPECT_DOUBLE_EQ(x.value(), 1.0);
}

TEST(Merge, HistogramMergeEqualsSingleRecorder) {
  // Recording a stream into two shards and merging must equal recording the
  // whole stream into one histogram — exactly, including min/max/mean and
  // every quantile (the fan-in contract the parallel runner relies on).
  std::vector<Time> values;
  std::uint64_t x = 12345;
  for (int i = 0; i < 10'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<Time>(x % 2'000'000));
  }
  LatencyHistogram whole, shard_a, shard_b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    (i % 2 == 0 ? shard_a : shard_b).record(values[i]);
  }
  shard_a.merge(shard_b);
  EXPECT_EQ(shard_a.count(), whole.count());
  EXPECT_EQ(shard_a.min(), whole.min());
  EXPECT_EQ(shard_a.max(), whole.max());
  EXPECT_DOUBLE_EQ(shard_a.mean_us(), whole.mean_us());
  for (double p : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(shard_a.quantile(p), whole.quantile(p)) << p;
}

TEST(Merge, HistogramMergeEmptyIsIdentity) {
  LatencyHistogram h, empty;
  h.record(100);
  h.merge(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 100);
  empty.merge(h);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.min(), 100);
  EXPECT_EQ(empty.max(), 100);
}

TEST(Merge, RegistryFanIn) {
  // Two worker-private registries folded into a collector: counters and
  // histograms combine, disjoint names copy over.
  MetricRegistry worker1, worker2, collector;
  worker1.counter("rtt.admitted").add(10);
  worker2.counter("rtt.admitted").add(32);
  worker2.counter("rtt.rejected").add(3);
  worker1.gauge("load").set(0.25);
  worker2.gauge("load").set(0.50);
  worker1.histogram("lat").record(100);
  worker2.histogram("lat").record(200);
  worker2.occupancy("q2.depth").update(0, 4);

  collector.merge_from(worker1);
  collector.merge_from(worker2);
  EXPECT_EQ(collector.counter("rtt.admitted").value(), 42u);
  EXPECT_EQ(collector.counter("rtt.rejected").value(), 3u);
  EXPECT_DOUBLE_EQ(collector.gauge("load").value(), 0.75);
  EXPECT_EQ(collector.histogram("lat").count(), 2u);
  EXPECT_EQ(collector.histogram("lat").min(), 100);
  EXPECT_EQ(collector.histogram("lat").max(), 200);
  ASSERT_NE(collector.find_occupancy("q2.depth"), nullptr);
  EXPECT_EQ(collector.find_occupancy("q2.depth")->max(), 4);
}

// ---- shard fan-in edge cases ---------------------------------------------
// The sharded simulator fans per-lane shards of ONE run into a global
// registry; lanes routinely contribute nothing, one sample, or series with
// disjoint active windows.  These pin the merge semantics for each case.

TEST(Merge, OccupancyMergeMatchesHandComputedIntegral) {
  // Lane A: value 2 on [0, 10), then 0 on [10, 30).
  // Lane B: first update at t=20 (contributes 0 before that — its queue was
  // empty), value 3 on [20, 30).
  // Combined over [0, 30): 2*10 + 0*10 + 3*10 = 50 -> mean 50/30.
  OccupancySeries a, b;
  a.update(0, 2);
  a.update(10, 0);
  a.update(30, 0);
  b.update(20, 3);
  b.update(30, 3);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 50.0 / 30.0);
  EXPECT_EQ(a.max(), 3);
  EXPECT_EQ(a.current(), 3);
  EXPECT_EQ(a.duration(), 30);
}

TEST(Merge, OccupancyMergeExtendsShorterSeriesCurrentValue) {
  // The shorter series holds its last value to the union window's end:
  // A is 1 on [0, 100); B is 5 on [0, 10) and holds 5 to 100.
  // Combined integral: (1+5)*10 + (1+5)*90 = 600 -> mean 6.
  OccupancySeries a, b;
  a.update(0, 1);
  a.update(100, 1);
  b.update(0, 5);
  b.update(10, 5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.mean(), 6.0);
  EXPECT_EQ(a.duration(), 100);
}

TEST(Merge, OccupancyMergeEmptyShardIsIdentity) {
  OccupancySeries series, empty;
  series.update(0, 4);
  series.update(10, 4);
  const double mean = series.mean();
  series.merge(empty);  // empty other: no-op
  EXPECT_DOUBLE_EQ(series.mean(), mean);
  EXPECT_EQ(series.max(), 4);
  EXPECT_EQ(series.duration(), 10);

  OccupancySeries target;
  target.merge(series);  // empty this: copies
  EXPECT_DOUBLE_EQ(target.mean(), mean);
  EXPECT_EQ(target.max(), 4);
  EXPECT_EQ(target.current(), 4);
  EXPECT_EQ(target.duration(), 10);
}

TEST(Merge, OccupancyMergeSingleUpdateShard) {
  // A lane that saw exactly one update has a zero-width window: it must
  // contribute its value from that instant on, and nothing before.
  OccupancySeries a, b;
  a.update(0, 1);
  a.update(40, 1);
  b.update(30, 7);  // single sample at t=30
  a.merge(b);
  // Integral: 1*30 + (1+7)*10 = 110 -> mean 110/40.
  EXPECT_DOUBLE_EQ(a.mean(), 110.0 / 40.0);
  EXPECT_EQ(a.max(), 7);
  EXPECT_EQ(a.current(), 8);
}

TEST(Merge, HistogramMergeSingleSampleShards) {
  // Degenerate shards — one sample each, including 0 — must still combine
  // min/max/mean exactly.
  LatencyHistogram a, b, c;
  a.record(0);
  b.record(1'000'000);
  c.record(500);
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 1'000'000);
  EXPECT_DOUBLE_EQ(a.mean_us(), (0.0 + 1'000'000.0 + 500.0) / 3.0);
  EXPECT_TRUE(a.consistent());
}

TEST(Merge, FanInOccupancyCollisionComposesInParallel) {
  // merge_from aborts on occupancy collisions (unrelated runs); fan_in is
  // the sharded path and must compose them instead.
  MetricRegistry lane_a, lane_b, global;
  lane_a.occupancy("q1.occupancy").update(0, 2);
  lane_a.occupancy("q1.occupancy").update(10, 2);
  lane_b.occupancy("q1.occupancy").update(0, 3);
  lane_b.occupancy("q1.occupancy").update(10, 3);
  lane_a.counter("rtt.admitted").add(7);
  lane_b.counter("rtt.admitted").add(5);
  global.fan_in(lane_a);
  global.fan_in(lane_b);
  EXPECT_DOUBLE_EQ(global.occupancy("q1.occupancy").mean(), 5.0);
  EXPECT_EQ(global.counter("rtt.admitted").value(), 12u);
}

TEST(ShapingReportTest, MissRunsAndClassSplit) {
  // Hand-built result: seq order response times (ms):
  //   5, 15, 20, 5, 30  with delta = 10 ms
  // -> misses at seq 1,2 (one run of 2) and seq 4 (one run of 1).
  SimResult sim;
  const Time rts[] = {from_ms(5), from_ms(15), from_ms(20), from_ms(5),
                      from_ms(30)};
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    CompletionRecord c;
    c.seq = seq;
    c.arrival = 0;
    c.start = 0;
    c.finish = rts[seq];
    c.klass = seq == 2 ? ServiceClass::kOverflow : ServiceClass::kPrimary;
    sim.completions.push_back(c);
  }
  const ShapingReport report = build_shaping_report(sim, from_ms(10));
  EXPECT_EQ(report.all.count, 5u);
  EXPECT_EQ(report.primary.count, 4u);
  EXPECT_EQ(report.overflow.count, 1u);
  EXPECT_EQ(report.deadline_misses, 3u);
  ASSERT_EQ(report.max_miss_run(), 2u);
  EXPECT_EQ(report.miss_run_lengths[0], 1u);  // one isolated miss
  EXPECT_EQ(report.miss_run_lengths[1], 1u);  // one run of two
  EXPECT_DOUBLE_EQ(report.all.fraction_within_delta, 2.0 / 5.0);
  EXPECT_EQ(report.all.max, from_ms(30));
  // Without a registry the admit/reject totals fall back to classes.
  EXPECT_EQ(report.admitted, 4u);
  EXPECT_EQ(report.rejected, 1u);
  EXPECT_FALSE(report.q1_occupancy.tracked);

  // Exports render without blowing up and carry the headline numbers.
  EXPECT_NE(report.to_string().find("misses"), std::string::npos);
  EXPECT_NE(report.to_csv().find("misses,total,3"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"deadline_misses\": 3"),
            std::string::npos);
}

// ---- SpanMap -------------------------------------------------------------
// The Tracer's flat linear-probe table: insert/lookup/erase must behave like
// a map through growth and backward-shift deletion (no tombstones means
// erase must keep every colliding probe chain reachable).

TEST(SpanMap, InsertLookupAndSize) {
  SpanMap<int> map;
  EXPECT_TRUE(map.empty());
  bool inserted = false;
  map.find_or_insert(7, inserted) = 70;
  EXPECT_TRUE(inserted);
  map.find_or_insert(7, inserted) += 1;
  EXPECT_FALSE(inserted);  // second touch finds, not inserts
  EXPECT_EQ(map.find_or_insert(7, inserted), 71);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SpanMap, ZeroKeyIsAValidKey) {
  // Seq 0 — the very first request of every run — must round-trip; only
  // 2^64 - 1 marks an empty slot.
  SpanMap<int> map;
  bool inserted = false;
  map.find_or_insert(0, inserted) = 42;
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.find_or_insert(0, inserted), 42);
  EXPECT_FALSE(inserted);
  EXPECT_TRUE(map.erase(0));
  EXPECT_TRUE(map.empty());
}

TEST(SpanMap, EraseMissingAndOnEmpty) {
  SpanMap<int> map;
  EXPECT_FALSE(map.erase(5));  // empty table, no slots allocated yet
  bool inserted = false;
  map.find_or_insert(5, inserted);
  EXPECT_FALSE(map.erase(6));
  EXPECT_TRUE(map.erase(5));
  EXPECT_FALSE(map.erase(5));  // already gone
}

TEST(SpanMap, GrowthRehashesEveryEntry) {
  // Push far past the initial 64-slot table and the 3/4 load factor; every
  // key must survive the rehash chain with its value.
  SpanMap<std::uint64_t> map;
  bool inserted = false;
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) {
    map.find_or_insert(k * 97 + 13, inserted) = k;
    ASSERT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_EQ(map.find_or_insert(k * 97 + 13, inserted), k) << k;
    ASSERT_FALSE(inserted);
  }
}

TEST(SpanMap, BackwardShiftDeletionKeepsProbeChainsReachable) {
  // Interleave inserts and erases in the in-flight pattern the Tracer
  // drives (insert at arrival, erase at completion) and mirror against a
  // reference map; any tombstone-style breakage shows up as a lost key.
  SpanMap<std::uint64_t> map;
  bool inserted = false;
  std::uint64_t live_lo = 0, next = 0;
  for (int round = 0; round < 2'000; ++round) {
    map.find_or_insert(next, inserted) = next * 2;
    ASSERT_TRUE(inserted);
    ++next;
    if (round % 3 == 2) {
      ASSERT_TRUE(map.erase(live_lo));
      ++live_lo;
    }
  }
  for (std::uint64_t k = live_lo; k < next; ++k) {
    ASSERT_EQ(map.find_or_insert(k, inserted), k * 2) << k;
    ASSERT_FALSE(inserted);
  }
  EXPECT_EQ(map.size(), next - live_lo);
  EXPECT_FALSE(map.erase(live_lo - 1));  // erased keys stay erased
}

TEST(SpanMap, MaxKeyIsRejected) {
  // 2^64 - 1 is the empty-slot marker: taking it as a key would insert it
  // afresh on every touch and never find it to erase.
  SpanMap<int> map;
  bool inserted = false;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_DEATH(map.find_or_insert(kMax, inserted), "Precondition");
  map.find_or_insert(kMax - 1, inserted) = 1;
  EXPECT_TRUE(inserted);
  EXPECT_DEATH((void)map.erase(kMax), "Precondition");
  EXPECT_EQ(map.size(), 1u);
}

TEST(SpanMap, DifferentialAgainstUnorderedMap) {
  // Multiplicative hashing spreads dense or strided keys so evenly that
  // they barely collide, so the tests above hardly exercise backward-shift
  // deletion.  Here keys come from a sliding seq window (as the Tracer's
  // do) and from anywhere in 64 bits, are erased in random order, and the
  // live count hovers just under the 3/4 growth threshold of each capacity
  // from 64 to 2048 slots, where probe chains run long.
  SpanMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  std::vector<std::uint64_t> live;  // ref's keys, for random picks
  Rng rng(11);
  bool inserted = false;
  std::uint64_t window_lo = 0;
  std::uint64_t stamp = 0;
  for (std::size_t capacity = 64; capacity <= 2048; capacity *= 2) {
    const std::size_t high = capacity * 3 / 4 - 1;  // most without growing
    for (int op = 0; op < 6'000; ++op) {
      window_lo += static_cast<std::uint64_t>(rng.uniform_int(0, 2));
      const bool add = live.size() + 8 <= high ||
                       (live.size() < high && rng.next_double() < 0.5);
      if (add) {
        std::uint64_t key =
            rng.next_double() < 0.7
                ? window_lo + static_cast<std::uint64_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(capacity)))
                : rng.next_u64();
        if (key == SpanMap<std::uint64_t>::kEmpty) key = 0;
        const bool present = ref.count(key) != 0;
        std::uint64_t& value = map.find_or_insert(key, inserted);
        ASSERT_EQ(inserted, !present) << key;
        if (present) {
          ASSERT_EQ(value, ref[key]) << key;
        } else {
          live.push_back(key);
        }
        value = ++stamp;
        ref[key] = stamp;
      } else {
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
        const std::uint64_t key = live[pick];
        live[pick] = live.back();
        live.pop_back();
        ASSERT_TRUE(map.erase(key)) << key;
        ref.erase(key);
        ASSERT_FALSE(map.erase(key)) << key;
      }
      ASSERT_EQ(map.size(), ref.size());
      if (op % 500 == 0) {
        for (const auto& [key, value] : ref) {
          ASSERT_EQ(map.find_or_insert(key, inserted), value) << key;
          ASSERT_FALSE(inserted) << key;
        }
      }
    }
  }
  EXPECT_GT(ref.size(), 1'000u);
}

TEST(SpanMap, ClearResets) {
  SpanMap<int> map;
  bool inserted = false;
  for (std::uint64_t k = 0; k < 100; ++k) map.find_or_insert(k, inserted);
  map.clear();
  EXPECT_TRUE(map.empty());
  map.find_or_insert(3, inserted) = 9;
  EXPECT_TRUE(inserted);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace qos
