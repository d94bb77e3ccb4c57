#include "obs/sharded_sink.h"

#include <algorithm>
#include <span>
#include <utility>

namespace qos {

ShardedEventSink::ShardedEventSink(EventSink* downstream, bool overlap_drain)
    : downstream_(downstream), overlap_drain_(overlap_drain) {
  if (overlap_drain_) drain_ = std::thread([this] { drain_loop(); });
}

ShardedEventSink::~ShardedEventSink() { finish(); }

EventSink* ShardedEventSink::lane(std::uint32_t key) {
  auto it = std::lower_bound(
      lanes_.begin(), lanes_.end(), key,
      [](const std::unique_ptr<LaneSink>& l, std::uint32_t k) {
        return l->key() < k;
      });
  if (it != lanes_.end() && (*it)->key() == key) return it->get();
  it = lanes_.insert(it, std::make_unique<LaneSink>(key));
  return it->get();
}

void ShardedEventSink::merge_and_forward() {
  const std::span<const Event* const> ordered = order_.sort();
  forwarded_ += ordered.size();
  for (const Event* e : ordered) {
    digest_.fold(*e);
    if (downstream_ != nullptr) downstream_->on_event(*e);
  }
}

void ShardedEventSink::flush() {
  if (!overlap_drain_) {
    // Inline drain: order straight out of the lane buffers (zero-copy) on
    // the calling thread, then reset them.
    order_.clear();
    for (const auto& l : lanes_) order_.append(l->buffer());
    merge_and_forward();
    for (auto& l : lanes_) l->buffer().clear();
    return;
  }

  // Overlap drain: seal this window by moving the non-empty lane buffers
  // out (recycling vectors from the freelist so steady state allocates
  // nothing) and hand it to the drain thread.  Blocks while a previous
  // window is still queued — that bound is the memory contract.
  Window window;
  window.reserve(lanes_.size());
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& l : lanes_) {
      if (l->buffer().empty()) continue;
      std::vector<Event> replacement;
      if (!freelist_.empty()) {
        replacement = std::move(freelist_.back());
        freelist_.pop_back();
      }
      window.push_back(std::exchange(l->buffer(), std::move(replacement)));
    }
  }
  if (window.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return queue_.empty(); });
  queue_.push_back(std::move(window));
  cv_.notify_all();
}

void ShardedEventSink::drain_loop() {
  for (;;) {
    Window window;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      window = std::move(queue_.front());
      queue_.pop_front();
      draining_ = true;
      cv_.notify_all();  // the producer may queue the next window
    }
    order_.clear();
    for (const auto& buf : window) order_.append(buf);
    merge_and_forward();  // exclusive: only this thread merges
    {
      std::lock_guard<std::mutex> lk(mu_);
      draining_ = false;
      for (auto& buf : window) {
        buf.clear();
        freelist_.push_back(std::move(buf));
      }
      cv_.notify_all();  // finish() may be waiting for idle
    }
  }
}

void ShardedEventSink::finish() {
  if (!overlap_drain_ || finished_) return;
  finished_ = true;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return queue_.empty() && !draining_; });
    stop_ = true;
    cv_.notify_all();
  }
  if (drain_.joinable()) drain_.join();
}

std::uint64_t ShardedEventSink::buffered() const {
  std::uint64_t n = 0;
  for (const auto& l : lanes_) n += l->buffer().size();
  return n;
}

}  // namespace qos
