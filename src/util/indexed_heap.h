// Indexed binary min-heap over small dense integer ids.
//
// The event simulator keys it by completion time over server ids; the fair
// schedulers key it by head tag over flow ids.  Both need the exact total
// order their original linear scans induced: ascending key, ties broken by
// the *lowest id* (the scans used a strict `<` improvement test walking ids
// in ascending order).  The heap therefore orders nodes lexicographically by
// (key, id), which makes every pop bit-compatible with the scan it replaced.
//
// A position table gives O(log n) update of an arbitrary id.  The table
// grows lazily toward `id_capacity` as ids are first pushed, so a heap
// configured for 10^6 ids but holding a handful costs a handful of entries,
// not megabytes — `reset` records the capacity bound and allocates nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace qos {

template <typename Key>
class IndexedMinHeap {
 public:
  IndexedMinHeap() = default;
  explicit IndexedMinHeap(int id_capacity) { reset(id_capacity); }

  /// Empty the heap and bound the id space to [0, id_capacity).  O(1): no
  /// storage is reserved up front; the position table grows with the
  /// largest id actually pushed.
  void reset(int id_capacity) {
    QOS_EXPECTS(id_capacity >= 0);
    capacity_ = static_cast<std::size_t>(id_capacity);
    heap_.clear();
    pos_.clear();
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Id with the smallest (key, id).
  int top() const {
    QOS_EXPECTS(!heap_.empty());
    return heap_[0].id;
  }

  const Key& top_key() const {
    QOS_EXPECTS(!heap_.empty());
    return heap_[0].key;
  }

  void push(int id, Key key) {
    const std::size_t i = check_id(id);
    if (i >= pos_.size()) grow_pos(i);
    QOS_EXPECTS(pos_[i] == kAbsent);
    pos_[i] = heap_.size();
    heap_.push_back(Node{key, id});
    sift_up(heap_.size() - 1);
  }

  /// Re-key an id already in the heap (key may move either way).
  void update(int id, Key key) {
    const std::size_t p = slot_of(check_id(id));
    QOS_EXPECTS(p != kAbsent);
    heap_[p].key = key;
    sift_up(p);
    sift_down(pos_[static_cast<std::size_t>(id)]);
  }

  /// Remove and return the top id.
  int pop() {
    QOS_EXPECTS(!heap_.empty());
    const int id = heap_[0].id;
    pos_[static_cast<std::size_t>(id)] = kAbsent;
    const Node last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      place(0, last);
      sift_down(0);
    }
    return id;
  }

  /// Bytes held by the heap and its position table.  The lazy-growth
  /// contract asserted by bench/micro_algorithms: an idle heap costs O(1)
  /// regardless of id_capacity, and a busy one O(max id pushed).
  std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(Node) +
           pos_.capacity() * sizeof(std::size_t);
  }

 private:
  struct Node {
    Key key;
    int id;
  };

  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  std::size_t check_id(int id) const {
    QOS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < capacity_);
    return static_cast<std::size_t>(id);
  }

  /// Heap index of `id`, kAbsent when out — including ids beyond the lazily
  /// grown position table, which have never been pushed.
  std::size_t slot_of(std::size_t i) const {
    return i < pos_.size() ? pos_[i] : kAbsent;
  }

  void grow_pos(std::size_t i) {
    std::size_t next = pos_.empty() ? 16 : pos_.size() * 2;
    if (next < i + 1) next = i + 1;
    if (next > capacity_) next = capacity_;
    pos_.resize(next, kAbsent);
  }

  /// (key, id) lexicographic — the scan-equivalent total order.
  static bool less(const Node& a, const Node& b) {
    if (a.key < b.key) return true;
    if (b.key < a.key) return false;
    return a.id < b.id;
  }

  void place(std::size_t i, const Node& n) {
    heap_[i] = n;
    pos_[static_cast<std::size_t>(n.id)] = i;
  }

  void sift_up(std::size_t i) {
    const Node n = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!less(n, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, n);
  }

  void sift_down(std::size_t i) {
    const Node n = heap_[i];
    const std::size_t count = heap_.size();
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= count) break;
      if (child + 1 < count && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], n)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, n);
  }

  std::size_t capacity_ = 0;  ///< id bound from reset(); pos_ grows toward it
  std::vector<Node> heap_;
  std::vector<std::size_t> pos_;  ///< id -> heap index, kAbsent when out
};

}  // namespace qos
