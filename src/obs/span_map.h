// SpanMap — open-addressing map from request seq to in-flight RequestSpan.
//
// The Tracer keeps one live span per sampled in-flight request and touches
// the map on nearly every event (insert at arrival, lookup at admit and
// dispatch, erase at completion).  With node-based std::unordered_map that
// is an allocation and a pointer chase per touch, which alone can cost more
// than the rest of the event pipeline on a giant run.  This map is a flat
// linear-probe table — power-of-two capacity, backward-shift deletion (no
// tombstones) — so the steady-state working set is sized by the *in-flight*
// span count (bounded by queue depths, typically tens), never by the run
// length.
//
// Layout: the keys live in an array of their own, beside a parallel array
// of values.  A probe, and the backward shift of an erase, read only 8-byte
// keys; a value is touched when it is found, inserted, or moved because its
// entry shifts.  The home slot is Fibonacci hashing: the top log2(capacity)
// bits of key × 2^64/φ, one multiply.
//
// Not a general-purpose container: keys are request seqs — any u64 except
// 2^64 - 1, which marks an empty slot (QOS_EXPECTS rejects it) — values
// must be default-constructible and copyable, and there is no iteration:
// the Tracer never walks live spans.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"

namespace qos {

template <typename Value>
class SpanMap {
 public:
  /// The one key the table cannot hold: it marks an empty slot.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// Reference to the value for `key`, inserting a default-constructed one
  /// when absent; `inserted` reports which happened.  The reference is
  /// invalidated by any later insert (the table may grow) or erase.
  Value& find_or_insert(std::uint64_t key, bool& inserted) {
    QOS_EXPECTS(key != kEmpty);
    if ((size_ + 1) * 4 >= keys_.size() * 3) grow();
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (keys_[i] == key) {
        inserted = false;
        return values_[i];
      }
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        values_[i] = Value{};
        ++size_;
        inserted = true;
        return values_[i];
      }
    }
  }

  /// Remove `key` if present (backward-shift deletion keeps every remaining
  /// entry reachable without tombstones).  Returns whether it was present.
  bool erase(std::uint64_t key) {
    QOS_EXPECTS(key != kEmpty);
    if (keys_.empty()) return false;
    const std::size_t mask = keys_.size() - 1;
    std::size_t hole = home(key);
    while (keys_[hole] != key) {
      if (keys_[hole] == kEmpty) return false;
      hole = (hole + 1) & mask;
    }
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmpty;
         j = (j + 1) & mask) {
      // The entry at j may shift into the hole only if its home slot does
      // not lie strictly between the hole and j (probe-order arithmetic,
      // mod capacity).
      if (((j - home(keys_[j])) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        values_[hole] = std::move(values_[j]);
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.clear();
    values_.clear();
    size_ = 0;
  }

 private:
  /// Top log2(capacity) bits of key × 2^64/φ.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    const std::size_t capacity = old_keys.empty() ? 64 : old_keys.size() * 2;
    keys_.assign(capacity, kEmpty);
    values_.assign(capacity, Value{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    const std::size_t mask = capacity - 1;
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
      if (old_keys[k] == kEmpty) continue;
      std::size_t i = home(old_keys[k]);
      while (keys_[i] != kEmpty) i = (i + 1) & mask;
      keys_[i] = old_keys[k];
      values_[i] = std::move(old_values[k]);
    }
  }

  std::vector<std::uint64_t> keys_;  ///< kEmpty marks a free slot
  std::vector<Value> values_;        ///< values_[i] belongs to keys_[i]
  unsigned shift_ = 0;               ///< 64 - log2(capacity), set by grow()
  std::size_t size_ = 0;
};

}  // namespace qos
