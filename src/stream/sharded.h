// Sharded deterministic simulation: one run partitioned across cores by
// tenant, bit-identical to the serial reference at any shard count.
//
// The logical partition is the tenant (Request::client): each tenant gets
// its own Scheduler + Server lane from a TenantFactory, which is the
// provisioning model the control plane already uses — tenants share nothing,
// so lanes can advance independently.  What forces coordination is not lane
// coupling but the *streaming input* (one globally arrival-sorted stream)
// and the *deterministic output* (one canonical completion order).  Both are
// provided by a conservative virtual-time barrier, classic conservative PDES
// over a lookahead grid of slice width δ:
//
//   window k:  feed every arrival in [W, E) to its lane's inbox;
//              advance all lanes to E in parallel (the barrier step);
//              merge the lanes' window completions canonically and emit.
//
// Lookahead here is exact, not estimated: a lane can always advance to the
// window edge because no event outside its own inbox can affect it.  Windows
// are sized by work on the δ grid.  W is the start of the slice holding the
// next event (so empty virtual time costs nothing) and E = W + width·δ, but
// feeding stops at the first grid edge after the window has fed 32 arrivals
// per lane, which becomes E.  The width doubles after a window that retired
// (arrivals fed + completions) fewer events than that target, up to a cap,
// and halves after a window the target cut short.  Every count the rule
// reads is a function of the input, so windows are shard-independent; a
// dense stretch takes one barrier per target's worth of arrivals, and a
// drain tail with no arrivals left takes one per wide window instead of one
// per slice.
//
// Determinism argument (tests/test_sharded_sim.cpp asserts all of it):
//   * each lane's event sequence is a pure function of its input — the
//     windowed advance_until cuts compose to exactly the per-tenant serial
//     reference (SimEngine's resumability contract);
//   * the thread pool only decides *which worker* runs a lane's window, never
//     the lane's state evolution, so the shard count is pure parallelism;
//   * window completions are put in the order a stable sort on (finish,
//     seq, server) gives their tenant-ascending concatenation — a canonical
//     order independent of both thread scheduling and shard count.  It is
//     computed by a stable radix pass on the finish time plus a stable pass
//     over each equal-finish group (util/window_order.h), which is exactly
//     that stable sort's order.  Windows tile virtual time, so per-window
//     merges concatenate into a globally sorted sequence.
//
// Memory: one window of arrivals (the arrival target plus at most one
// slice) + per-lane in-flight state + one window of completions — bounded
// by the target and burst density over one slice, not by run length.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "obs/sharded_sink.h"
#include "obs/sink.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "sim/simulator.h"
#include "stream/stream.h"
#include "util/time.h"

namespace qos::stream {

/// One tenant's independent service lane, as built by a TenantFactory.
struct TenantSim {
  std::unique_ptr<Scheduler> scheduler;
  std::vector<std::unique_ptr<Server>> servers;  ///< size == server_count()
};

/// Builds the lane for a tenant the first time one of its requests arrives.
/// Must be deterministic in `client`; it is only ever called on the
/// coordinator thread, in first-arrival order.
using TenantFactory = std::function<TenantSim(std::uint32_t client)>;

struct ShardedOptions {
  /// Worker count including the caller (ThreadPool semantics): 1 is the
  /// serial reference every other count must match bit for bit.
  int shards = 1;

  /// δ — the grid barrier window edges sit on, in virtual time.  A window
  /// spans a whole number of δ slices, sized by work (see the file
  /// comment), so δ bounds how far past the arrival target a window can
  /// feed.  Purely a throughput/memory knob: results are identical for any
  /// value.
  Time lookahead = 10'000;

  /// Observability (both optional, borrowed, coordinator-thread consumers).
  /// When `sink` is non-null every lane gets a private buffered sink
  /// (obs/sharded_sink.h); at each barrier the coordinator merges the lane
  /// buffers canonically — (time, seq, server), the completion merge's
  /// order — and forwards one stream here, byte-identical at any shard
  /// count.  When `registry` is non-null every lane records into a private
  /// MetricRegistry, fanned in tenant-ascending after the run
  /// (MetricRegistry::fan_in), so snapshots are also shard-independent.
  EventSink* sink = nullptr;
  MetricRegistry* registry = nullptr;

  /// Overlap the event drain (canonical merge + `sink` consumer chain) with
  /// the next window's parallel advance on an internal drain thread —
  /// bounded at one pending window, so memory stays two windows deep (see
  /// obs/sharded_sink.h).  The stream `sink` observes is byte-identical
  /// either way; with overlap it is driven from that internal thread while
  /// the run is in flight (it is never called concurrently, and the run's
  /// end joins the thread before returning).  Disable to drive `sink`
  /// strictly from the coordinator between barriers.
  bool overlap_drain = true;
};

/// The canonical completion order: finish, then seq, then server.
inline bool merged_before(const CompletionRecord& a,
                          const CompletionRecord& b) {
  if (a.finish != b.finish) return a.finish < b.finish;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.server < b.server;
}

struct ShardedStats {
  std::uint64_t requests = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t completions = 0;
  std::uint64_t windows = 0;  ///< barrier steps taken (empty time skipped)
  std::uint64_t tenants = 0;  ///< lanes created
  Time makespan = 0;          ///< last completion instant

  /// When ShardedOptions::sink was set: how many events the canonical merge
  /// forwarded, and the order-sensitive digest of that stream (folded inline
  /// during the merge, so it is free to read).  Equal digests across shard
  /// counts certify byte-identical event streams.
  std::uint64_t events_forwarded = 0;
  EventStreamDigest event_digest;

  std::uint64_t events() const { return requests + dispatches + completions; }
};

/// Drive a multi-tenant stream through per-tenant lanes on `shards` threads.
/// Completions reach `out` in the canonical merged order (finish, then seq,
/// then server), one window at a time.  Observability is wired through
/// ShardedOptions::sink / ::registry: lanes buffer events privately while
/// they advance concurrently, and the coordinator re-serializes them into
/// the canonical global order at every barrier flush, so a downstream sink
/// (probe, Tracer, SlaBreachDetector) sees the same stream a 1-shard run
/// produces.
ShardedStats simulate_sharded(
    RequestStream& requests, const TenantFactory& factory,
    const ShardedOptions& options,
    const std::function<void(const CompletionRecord&)>& out);

/// Materializing convenience: completions in the canonical merged order.
/// Interchangeable with concatenating per-tenant serial runs and sorting by
/// (finish, seq, server).
SimResult simulate_sharded(RequestStream& requests,
                           const TenantFactory& factory,
                           const ShardedOptions& options = {});

}  // namespace qos::stream
