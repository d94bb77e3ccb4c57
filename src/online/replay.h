// replay_trace — drive an online::Shaper from a materialized trace under a
// VirtualClock, reconstructing exactly the run shape_and_run would produce.
//
// This is the proof obligation that keeps the online path honest, and it
// holds by construction: the replay is a run of the simulator's own engine
// (sim/engine.h, BasicSimEngine) — the same arrival buffer, completion heap
// and cadence simulate() uses — whose front routes each scheduler-facing
// call through the Shaper's public API (admit / poll_dispatch /
// on_completion) instead of a DispatchCore of the engine's own.  The
// Shaper makes those calls on its own DispatchCore, so both sides run one
// loop with two fronts.  The differential tests
// (tests/test_online_shaper.cpp) assert per policy that the admission
// decisions, the completion records and the emitted event stream are
// bit-identical to shape_and_run's.
//
// Servers come from make_servers (core/shaper.h), keyed on the Shaper's
// scheduler rather than on `shaping.policy` (which custom and degraded
// backends ignore), each passed through `shaping.server_decorator` — so the
// fault layer composes here too.  One difference from simulate(): a server
// model sizes each service after poll_dispatch has returned, so its own
// events follow the kDispatch they belong to instead of preceding it.
#pragma once

#include <vector>

#include "online/shaper.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace qos::online {

struct ReplayOutcome {
  /// One decision per trace request, in arrival order.
  std::vector<Decision> decisions;
  /// Completion records in finish order — the same shape (and, for a
  /// faithful replay, the same bytes) as shape_and_run's SimResult.
  SimResult sim;
};

/// Replay `trace` through a fresh Shaper built from `options`.
/// options.max_q2_depth must be 0 (shedding changes the stream the
/// scheduler sees; the replay contract is the unbounded one).
ReplayOutcome replay_trace(const Trace& trace, const ShaperOptions& options);

}  // namespace qos::online
