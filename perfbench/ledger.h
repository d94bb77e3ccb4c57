// The benchmark's own layer ledger: per-thread call counts, wall-clock
// accumulators, allocation counts and sampled spans, recorded from outside
// the library by timing calls into each layer's public interface.
//
// A Scope brackets one call into a layer.  Scopes nest (a stream pull
// contains the source pulls it makes; an admit() contains the scheduler's
// on_arrival), and each Scope keeps both its total time and its self time
// (total minus the enclosed child Scopes), so per-layer self times add up
// to the time spent inside decorated calls.  Allocation counts follow the
// same total/self split.
//
// Spans: a Scope whose request seq is a multiple of the sampling interval
// is recorded as a span (id = request seq, parent = the enclosing Scope),
// and so is every Scope enclosing a recorded span, so parent links always
// resolve.  Spans stay in preallocated per-thread buffers until
// write_spans() runs at the end of the benchmark.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

/// Recombination policies in the order the sim lanes cycle through them.
inline constexpr int kPolicies = 4;
inline constexpr const char* kPolicyNames[kPolicies] = {"miser", "split",
                                                        "fq", "fcfs"};

enum Slot : int {
  kGen,           ///< a trace source's RequestStream::next()
  kPull,          ///< the merged stream's next() (includes kGen)
  kArrival,       ///< Scheduler::on_arrival, + policy index
  kNextFor = kArrival + kPolicies,   ///< Scheduler::next_for, + policy
  kComplete = kNextFor + kPolicies,  ///< Scheduler::on_complete, + policy
  kServer = kComplete + kPolicies,   ///< Server::service_duration
  kEmit,          ///< the completion callback handed to simulate_sharded
  kSink,          ///< EventSink::on_event in front of the Tracer
  kAdmit,         ///< online::Shaper::admit
  kPoll,          ///< online::Shaper::poll_dispatch
  kShaperComplete,  ///< online::Shaper::on_completion
  kSlotCount,
};

const char* slot_name(int slot);

inline constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Allocations made by the calling thread so far (counted by the
/// benchmark binary's replacement operator new).
std::uint64_t thread_allocs();
/// Allocations made by every thread so far.
std::uint64_t all_allocs();

struct Acc {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
  std::uint64_t hits = 0;  ///< calls that produced work (next_for, poll)
};

using Totals = std::array<Acc, kSlotCount>;

class Scope {
 public:
  explicit Scope(int slot);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The request this call handled, when known (stream pulls learn it on
  /// return); selects the call for span sampling.
  void set_seq(std::uint64_t seq);
  /// Count this call as productive (a dispatch, a non-empty poll).
  void hit();

 private:
  struct ThreadLedger* ledger_;
};

/// Record one span per `every` request seqs (0 disables spans).
void set_span_sampling(std::uint64_t every);

/// Sum every thread's accumulators, then zero them.  Call only while no
/// decorated call is in flight.
Totals collect_and_reset();

/// Write the recorded spans as Chrome/Perfetto trace_event JSON.  Returns
/// the span count, or -1 when the file cannot be written.
long write_spans(const std::string& path);

}  // namespace perfbench
