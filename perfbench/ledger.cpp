#include "ledger.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace perfbench {
namespace {

// ---- allocation counting -------------------------------------------------
//
// Each thread bumps its own cache-line-sized counter, so counting adds no
// cross-thread contention to the paths it measures.  Slots are handed out
// round-robin without allocating (operator new itself runs here); a slot
// shared after wrap-around still counts exactly because the increment is
// atomic.

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> count{0};
};

constexpr std::size_t kAllocSlots = 4096;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<std::size_t> g_next_alloc_slot{0};
thread_local AllocSlot* tl_alloc_slot = nullptr;

AllocSlot& alloc_slot() {
  if (tl_alloc_slot == nullptr)
    tl_alloc_slot = &g_alloc_slots[g_next_alloc_slot.fetch_add(
                                       1, std::memory_order_relaxed) %
                                   kAllocSlots];
  return *tl_alloc_slot;
}

void* counted_alloc(std::size_t n) {
  alloc_slot().count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  alloc_slot().count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace
}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t thread_allocs() {
  return alloc_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t all_allocs() {
  std::uint64_t total = 0;
  for (const AllocSlot& s : g_alloc_slots)
    total += s.count.load(std::memory_order_relaxed);
  return total;
}

const char* slot_name(int slot) {
  static const std::array<std::string, kSlotCount> names = [] {
    std::array<std::string, kSlotCount> n;
    n[kGen] = "trace.next";
    n[kPull] = "stream.merge.next";
    for (int p = 0; p < kPolicies; ++p) {
      const std::string sched = std::string("sched.") + kPolicyNames[p];
      n[kArrival + p] = sched + ".on_arrival";
      n[kNextFor + p] = sched + ".next_for";
      n[kComplete + p] = sched + ".on_complete";
    }
    n[kServer] = "server.service_duration";
    n[kEmit] = "sharded.emit";
    n[kSink] = "obs.sink";
    n[kAdmit] = "shaper.admit";
    n[kPoll] = "shaper.poll_dispatch";
    n[kShaperComplete] = "shaper.on_completion";
    return n;
  }();
  return names[static_cast<std::size_t>(slot)].c_str();
}

// ---- per-thread ledgers ----------------------------------------------------

namespace {

struct Span {
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint64_t seq;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = a top-level call
  int slot;
};

struct Frame {
  int slot;
  bool keep;
  std::uint64_t seq;
  std::uint64_t id;
  std::int64_t start_ns;
  std::uint64_t start_allocs;
  std::uint64_t child_ns;
  std::uint64_t child_allocs;
};

constexpr int kMaxDepth = 16;
constexpr std::size_t kMaxSpansPerThread = 1 << 15;

}  // namespace

struct ThreadLedger {
  std::uint32_t tid = 0;
  Totals acc{};
  std::array<Frame, kMaxDepth> stack{};
  int depth = 0;
  std::uint64_t next_id = 0;
  std::vector<Span> spans;
};

namespace {

std::mutex g_ledgers_mutex;
std::vector<std::unique_ptr<ThreadLedger>> g_ledgers;  // guarded
std::atomic<std::uint64_t> g_span_every{0};
thread_local ThreadLedger* tl_ledger = nullptr;

ThreadLedger& ledger() {
  if (tl_ledger == nullptr) {
    auto fresh = std::make_unique<ThreadLedger>();
    fresh->spans.reserve(kMaxSpansPerThread);
    std::lock_guard<std::mutex> lock(g_ledgers_mutex);
    fresh->tid = static_cast<std::uint32_t>(g_ledgers.size() + 1);
    tl_ledger = fresh.get();
    g_ledgers.push_back(std::move(fresh));
  }
  return *tl_ledger;
}

}  // namespace

Scope::Scope(int slot) : ledger_(&ledger()) {
  ThreadLedger& l = *ledger_;
  if (l.depth >= kMaxDepth) std::abort();  // decorators never nest this deep
  Frame& f = l.stack[static_cast<std::size_t>(l.depth++)];
  f.slot = slot;
  f.keep = false;
  f.seq = kNoSeq;
  f.id = (static_cast<std::uint64_t>(l.tid) << 40) | ++l.next_id;
  f.child_ns = 0;
  f.child_allocs = 0;
  f.start_allocs = thread_allocs();
  f.start_ns = now_ns();
}

Scope::~Scope() {
  const std::int64_t end_ns = now_ns();
  const std::uint64_t end_allocs = thread_allocs();
  ThreadLedger& l = *ledger_;
  Frame& f = l.stack[static_cast<std::size_t>(--l.depth)];
  const auto dur = static_cast<std::uint64_t>(end_ns - f.start_ns);
  const std::uint64_t allocs = end_allocs - f.start_allocs;
  Acc& acc = l.acc[static_cast<std::size_t>(f.slot)];
  ++acc.calls;
  acc.total_ns += dur;
  acc.self_ns += dur - f.child_ns;
  acc.self_allocs += allocs - f.child_allocs;

  Frame* parent =
      l.depth > 0 ? &l.stack[static_cast<std::size_t>(l.depth - 1)] : nullptr;
  if (parent != nullptr) {
    parent->child_ns += dur;
    parent->child_allocs += allocs;
  }
  const std::uint64_t every = g_span_every.load(std::memory_order_relaxed);
  const bool sampled = every > 0 && f.seq != kNoSeq && f.seq % every == 0;
  if ((f.keep || sampled) && l.spans.size() < kMaxSpansPerThread) {
    l.spans.push_back(Span{f.start_ns, static_cast<std::int64_t>(dur), f.seq,
                           f.id, parent != nullptr ? parent->id : 0, f.slot});
    if (parent != nullptr) parent->keep = true;
  }
}

void Scope::set_seq(std::uint64_t seq) {
  ledger_->stack[static_cast<std::size_t>(ledger_->depth - 1)].seq = seq;
}

void Scope::hit() {
  const Frame& f = ledger_->stack[static_cast<std::size_t>(ledger_->depth - 1)];
  ++ledger_->acc[static_cast<std::size_t>(f.slot)].hits;
}

void set_span_sampling(std::uint64_t every) {
  g_span_every.store(every, std::memory_order_relaxed);
}

Totals collect_and_reset() {
  Totals sum{};
  std::lock_guard<std::mutex> lock(g_ledgers_mutex);
  for (auto& l : g_ledgers) {
    for (std::size_t s = 0; s < sum.size(); ++s) {
      Acc& to = sum[s];
      const Acc& from = l->acc[s];
      to.calls += from.calls;
      to.total_ns += from.total_ns;
      to.self_ns += from.self_ns;
      to.self_allocs += from.self_allocs;
      to.hits += from.hits;
    }
    l->acc = Totals{};
  }
  return sum;
}

long write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::lock_guard<std::mutex> lock(g_ledgers_mutex);
  std::int64_t origin = INT64_MAX;
  for (const auto& l : g_ledgers)
    for (const Span& s : l->spans) origin = std::min(origin, s.start_ns);
  long written = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  for (const auto& l : g_ledgers) {
    for (const Span& s : l->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"seq\":%lld,"
                   "\"span\":%llu,\"parent\":%llu}}",
                   written == 0 ? "" : ",", slot_name(s.slot), l->tid,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   s.seq == kNoSeq ? -1LL : static_cast<long long>(s.seq),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0 ? written : -1;
}

}  // namespace perfbench
