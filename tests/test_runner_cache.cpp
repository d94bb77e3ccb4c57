// ResultCache: hit/miss accounting, LRU eviction, disk tier, and the
// field-by-field invalidation granularity of the sweep cell digest.
#include "runner/result_cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "runner/hash.h"
#include "runner/sweep.h"
#include "trace/generator.h"

namespace qos {
namespace {

Digest key_of(const std::string& s) {
  ContentHasher h;
  h.str(s);
  return h.digest();
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("qos_cache_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

TEST(ResultCache, MissThenHit) {
  ResultCache cache;
  const Digest k = key_of("a");
  EXPECT_FALSE(cache.get(k).has_value());
  cache.put(k, "payload");
  const auto hit = cache.get(k);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "payload");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(ResultCache, LruEvictsOldestFirst) {
  ResultCache::Config config;
  config.memory_entries = 2;
  ResultCache cache(config);
  cache.put(key_of("a"), "A");
  cache.put(key_of("b"), "B");
  ASSERT_TRUE(cache.get(key_of("a")).has_value());  // a is now most recent
  cache.put(key_of("c"), "C");                      // evicts b
  EXPECT_TRUE(cache.get(key_of("a")).has_value());
  EXPECT_FALSE(cache.get(key_of("b")).has_value());
  EXPECT_TRUE(cache.get(key_of("c")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, DiskTierSurvivesMemoryClear) {
  TempDir dir;
  ResultCache::Config config;
  config.disk_dir = dir.str();
  ResultCache cache(config);
  cache.put(key_of("x"), "bytes on disk");
  cache.clear_memory();
  const auto hit = cache.get(key_of("x"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "bytes on disk");
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

TEST(ResultCache, DiskTierSharedAcrossInstances) {
  TempDir dir;
  ResultCache::Config config;
  config.disk_dir = dir.str();
  {
    ResultCache writer(config);
    writer.put(key_of("persist"), "v1");
  }
  ResultCache reader(config);
  const auto hit = reader.get(key_of("persist"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v1");
}

TEST(ResultCache, CorruptDiskEntryIsAMiss) {
  TempDir dir;
  ResultCache::Config config;
  config.disk_dir = dir.str();
  ResultCache cache(config);
  cache.put(key_of("c"), "good");
  cache.clear_memory();
  // Truncate every file in the tier: a torn entry must read as a miss (the
  // caller recomputes), never as bad data.
  for (const auto& entry : std::filesystem::directory_iterator(dir.str()))
    std::ofstream(entry.path(), std::ios::trunc).close();
  EXPECT_FALSE(cache.get(key_of("c")).has_value());
  // A header claiming 2^40 payload bytes over a 4-byte body is a miss too,
  // not an allocation of what it claims.
  for (const auto& entry : std::filesystem::directory_iterator(dir.str()))
    std::ofstream(entry.path(), std::ios::trunc)
        << "qosc1 " << (std::uint64_t{1} << 40) << " 0\ngood";
  EXPECT_FALSE(cache.get(key_of("c")).has_value());
}

TEST(ResultCache, DistinctKeysDoNotCollide) {
  ResultCache cache;
  cache.put(key_of("k1"), "v1");
  cache.put(key_of("k2"), "v2");
  EXPECT_EQ(*cache.get(key_of("k1")), "v1");
  EXPECT_EQ(*cache.get(key_of("k2")), "v2");
}

// --- invalidation granularity ----------------------------------------------
//
// Flipping exactly one input field must change the digest (the flipped cell
// recomputes) and flipping it back must restore it (everything else keeps
// hitting).  This is the cache's correctness contract from the issue.

class SweepDigestTest : public ::testing::Test {
 protected:
  SweepDigestTest() : trace_(generate_poisson(200, 2 * kUsPerSec, 7)) {
    cell_.label = "probe";
    cell_.trace_name = "poisson";
    cell_.trace = &trace_;
    cell_.shaping.policy = Policy::kMiser;
    cell_.shaping.fraction = 0.95;
    cell_.shaping.delta = from_ms(10);
    cell_.seed = 42;
    trace_digest_ = hash_trace(trace_);
  }

  Digest digest() const { return sweep_cell_digest(cell_, trace_digest_); }

  Trace trace_;
  Digest trace_digest_;
  SweepCell cell_;
};

TEST_F(SweepDigestTest, StableAcrossCalls) {
  const Digest a = digest();
  const Digest b = digest();
  EXPECT_EQ(a.hi, b.hi);
  EXPECT_EQ(a.lo, b.lo);
}

TEST_F(SweepDigestTest, EachFieldInvalidatesIndependently) {
  const Digest base = digest();
  auto differs = [&](const char* what) {
    const Digest d = digest();
    EXPECT_FALSE(d.hi == base.hi && d.lo == base.lo) << what;
  };

  auto saved = cell_;
  cell_.shaping.fraction = 0.90;
  differs("fraction");
  cell_ = saved;

  cell_.shaping.delta = from_ms(20);
  differs("delta");
  cell_ = saved;

  cell_.shaping.policy = Policy::kFcfs;
  differs("policy");
  cell_ = saved;

  cell_.shaping.capacity_override_iops = 500;
  differs("capacity override");
  cell_ = saved;

  cell_.seed = 43;
  differs("seed");
  cell_ = saved;

  cell_.faults.brownout(kUsPerSec, 2 * kUsPerSec, 0.3);
  differs("fault schedule");
  cell_ = saved;

  cell_.use_degraded_admission = true;
  differs("degraded admission");
  cell_ = saved;

  cell_.use_chaos = true;
  differs("chaos routing");
  cell_ = saved;

  cell_.fault_intensity = 0.5;
  differs("fault intensity");
  cell_ = saved;

  cell_.custom_salt = 99;
  differs("custom salt");
  cell_ = saved;

  cell_.server_iops = {100.0};
  differs("server pool");
  cell_ = saved;

  trace_digest_.lo ^= 1;
  differs("trace bytes");

  // Restored state must reproduce the original digest exactly.
  trace_digest_ = hash_trace(trace_);
  const Digest restored = digest();
  EXPECT_EQ(restored.hi, base.hi);
  EXPECT_EQ(restored.lo, base.lo);
}

TEST_F(SweepDigestTest, FlippingOneGridFieldLeavesSiblingsHitting) {
  // Run a tiny grid twice, flipping delta in between: the delta-keyed cells
  // must recompute, the rest must all hit.
  ResultCache cache;
  SweepGrid grid;
  grid.traces = {{"t", &trace_}};
  grid.policies = {Policy::kFcfs, Policy::kMiser};
  grid.deltas = {from_ms(10), from_ms(20)};
  grid.fractions = {0.95};

  SweepRunner warm({.threads = 1, .cache = &cache});
  warm.run(grid);
  EXPECT_EQ(warm.stats().cache_hits, 0u);

  // Same grid again: every cell hits.
  SweepRunner replay({.threads = 1, .cache = &cache});
  replay.run(grid);
  EXPECT_EQ(replay.stats().cache_hits, 4u);

  // Swap one delta for a new value: exactly the two cells under the new
  // delta miss; the two under the surviving delta still hit.
  grid.deltas = {from_ms(10), from_ms(50)};
  SweepRunner partial({.threads = 1, .cache = &cache});
  partial.run(grid);
  EXPECT_EQ(partial.stats().cache_hits, 2u);
}

}  // namespace
}  // namespace qos
