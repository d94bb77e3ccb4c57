// Canonical order of one barrier window, by a radix pass on time.
//
// At every barrier the sharded engine re-serializes the window's records —
// the lanes' event buffers (obs/sharded_sink.h) and the lanes' completions
// (stream/sharded.h) — into one canonical order: exactly the order that
// std::stable_sort gives the lane-ascending concatenation of the lane runs
// under a comparator whose first key is time and whose ties break on
// (seq, server).  Real windows interleave their lanes almost completely
// (64 lanes: the same-lane runs of the canonical order average about two
// records), so a comparison merge of the lane runs does no better than a
// comparison sort.  The first key, though, is an integer clock over a short
// span, and a radix sort orders that in a few linear passes:
//
//   1. key = (time - window minimum) << index_bits | concatenation index;
//   2. a stable LSD radix sort over the time bits of the key, with the
//      digit width scaled to the record count, so a window of ~100 records
//      does not pay for a wide histogram;
//   3. a stable insertion pass over each group of equal times, ordering it
//      by the comparator, which there reduces to (seq, server).
//
// Why the order is exact: the radix passes are stable and the index bits
// ascend in input order, so after step 2 records are ordered by time and
// equal times keep their input order — stable_sort's order on the first
// key.  Step 3 orders each equal-time group by the full comparator and,
// being stable, leaves records the comparator cannot tell apart in input
// order.  Records in different groups compare by time alone.  So every pair
// ends up where the stable sort puts it.
//
// Fallbacks keep that exact for any input: a window whose index and time
// range do not fit one 64-bit key together (packed_key_fits) is
// stable-sorted whole, and an equal-time group larger than
// kMaxInsertionGroup is stable-sorted alone.  The worst case stays
// O(n log n).  The window minimum is read off the run fronts, since each
// run is meant to be non-decreasing in time; a record earlier than every
// front wraps to an out-of-range offset and takes the whole-window
// fallback, so a run that breaks its time order still orders exactly.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/time.h"

namespace qos {

/// True when a window of `count` records whose times span `range` (latest
/// minus earliest) fits the packed radix key: the concatenation index in
/// at most 31 low bits (so every histogram count fits 32 bits), the time
/// offset in the bits above it.
constexpr bool packed_key_fits(std::uint64_t count, std::uint64_t range) {
  const int index_bits =
      count < 2 ? 0 : static_cast<int>(std::bit_width(count - 1));
  return index_bits < 32 &&
         index_bits + static_cast<int>(std::bit_width(range)) <= 64;
}

/// Orders one window of `Record`s.  `kTime` points at the record's time
/// field (the comparator's first key); `kBefore(a, b)` is the canonical
/// comparator, ordering by that time first.  The scratch buffers persist
/// across windows, so steady state allocates nothing.
template <class Record, auto kTime, auto kBefore>
class WindowOrder {
 public:
  /// Equal-time groups up to this size take the insertion pass; larger
  /// ones are stable-sorted, which bounds the pass at O(n) per window.
  static constexpr std::size_t kMaxInsertionGroup = 32;

  /// Start a new window.
  void clear() {
    by_index_.clear();
    min_time_ = kTimeMax;
  }

  /// Append the next lane's run, in lane-ascending order.  The records are
  /// borrowed until the next clear(); the run should be non-decreasing in
  /// time (the radix path needs it, the fallback does not).
  void append(std::span<const Record> run) {
    if (run.empty()) return;
    min_time_ = std::min(min_time_, run.front().*kTime);
    for (const Record& r : run) by_index_.push_back(&r);
  }

  /// The appended records, in the order std::stable_sort with kBefore
  /// gives their concatenation.  Valid until the next clear().
  std::span<const Record* const> sort() {
    const std::size_t n = by_index_.size();
    if (n < 2) return by_index_;
    const int index_bits = static_cast<int>(std::bit_width(n - 1));
    keys_.resize(n);
    // Unsigned arithmetic: a record before min_time_ wraps to a huge
    // offset, which the fit check then sends to the fallback.
    const std::uint64_t base = static_cast<std::uint64_t>(min_time_);
    std::uint64_t offsets = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t offset =
          static_cast<std::uint64_t>(by_index_[i]->*kTime) - base;
      offsets |= offset;
      keys_[i] = (offset << index_bits) | i;
    }
    order_.resize(n);
    if (!packed_key_fits(n, offsets)) {
      std::copy(by_index_.begin(), by_index_.end(), order_.begin());
      stable_sort_range(0, n);
      return order_;
    }
    radix_sort_time(index_bits, static_cast<int>(std::bit_width(offsets)));

    const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
    std::size_t group = 0;
    for (std::size_t i = 0; i < n; ++i) {
      order_[i] = by_index_[keys_[i] & index_mask];
      if ((keys_[i] ^ keys_[group]) >> index_bits) {
        order_group(group, i);
        group = i;
      }
    }
    order_group(group, n);
    return order_;
  }

 private:
  /// Stable LSD radix sort of keys_ on bits [index_bits, index_bits +
  /// time_bits), in as few passes as a digit of at most ~log2(n) bits
  /// (4..11) allows, with the digit width balanced across the passes.
  void radix_sort_time(int index_bits, int time_bits) {
    if (time_bits == 0) return;
    const std::size_t n = keys_.size();
    const int max_digit =
        std::clamp(static_cast<int>(std::bit_width(n)), 4, 11);
    const int passes = (time_bits + max_digit - 1) / max_digit;
    const int digit = (time_bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << digit;
    const std::uint64_t mask = buckets - 1;
    counts_.assign(static_cast<std::size_t>(passes) * buckets, 0);
    for (const std::uint64_t key : keys_) {
      std::uint64_t t = key >> index_bits;
      for (int p = 0; p < passes; ++p, t >>= digit)
        ++counts_[static_cast<std::size_t>(p) * buckets + (t & mask)];
    }
    tmp_.resize(n);
    for (int p = 0; p < passes; ++p) {
      std::uint32_t* count =
          counts_.data() + static_cast<std::size_t>(p) * buckets;
      const int shift = index_bits + p * digit;
      // A digit every key shares leaves the order as it is.
      if (count[(keys_[0] >> shift) & mask] == n) continue;
      std::uint32_t sum = 0;
      for (std::size_t b = 0; b < buckets; ++b)
        sum += std::exchange(count[b], sum);
      for (const std::uint64_t key : keys_)
        tmp_[count[(key >> shift) & mask]++] = key;
      keys_.swap(tmp_);
    }
  }

  /// Order order_[begin, end), one equal-time group, by kBefore — stably.
  void order_group(std::size_t begin, std::size_t end) {
    if (end - begin < 2) return;
    if (end - begin > kMaxInsertionGroup) {
      stable_sort_range(begin, end);
      return;
    }
    for (std::size_t i = begin + 1; i < end; ++i) {
      const Record* r = order_[i];
      std::size_t j = i;
      for (; j > begin && kBefore(*r, *order_[j - 1]); --j)
        order_[j] = order_[j - 1];
      order_[j] = r;
    }
  }

  void stable_sort_range(std::size_t begin, std::size_t end) {
    std::stable_sort(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                     order_.begin() + static_cast<std::ptrdiff_t>(end),
                     [](const Record* a, const Record* b) {
                       return kBefore(*a, *b);
                     });
  }

  std::vector<const Record*> by_index_;  ///< concatenation order
  std::vector<const Record*> order_;     ///< sort()'s result
  std::vector<std::uint64_t> keys_, tmp_;
  std::vector<std::uint32_t> counts_;
  Time min_time_ = kTimeMax;
};

}  // namespace qos
