// Streaming adapters for the synthetic workload generators.
//
// Each adapter drives the same incremental cores (trace/generator_core.h)
// the materialized generators are built on, merges base-process and batch-
// overlay arrivals in sorted order on the fly, and assigns addresses and
// sequence numbers at emission.  Because addresses are a function of the
// arrival-sorted order (see generator.cpp) and the cores replay identical
// Rng streams, every adapter yields the request sequence of its materialized
// counterpart byte for byte — without ever holding more than the overlay's
// bounded lookahead window in memory.
//
// The overlay merge is conservative, not clairvoyant: BatchCore draws the
// next batch's base instant one batch ahead, so its frontier() lower-bounds
// every arrival still inside the core, and a buffered candidate is emitted
// only once the frontier has passed it.  The buffered window is therefore at
// most one batch beyond the emission point, independent of trace length.
#pragma once

#include <cstdint>
#include <memory>

#include "stream/stream.h"
#include "trace/generator.h"
#include "trace/presets.h"
#include "util/time.h"

namespace qos::stream {

/// Streaming generate_workload: MMPP base + batch overlay + address model.
std::unique_ptr<RequestStream> make_workload_stream(const WorkloadSpec& spec,
                                                    Time duration,
                                                    std::uint64_t seed);

/// Streaming generate_poisson.
std::unique_ptr<RequestStream> make_poisson_stream(double rate_iops,
                                                   Time duration,
                                                   std::uint64_t seed,
                                                   const AddressSpec& addr = {});

/// Streaming preset_trace: the calibrated paper-workload stand-ins.
/// `duration <= 0` uses kPresetDuration and `seed == 0` uses preset_seed(w),
/// exactly as preset_trace does.
std::unique_ptr<RequestStream> make_preset_stream(Workload w,
                                                  Time duration = 0,
                                                  std::uint64_t seed = 0);

}  // namespace qos::stream
