#include "stream/gen_stream.h"

#include <queue>
#include <utility>
#include <vector>

#include "trace/generator_core.h"
#include "util/check.h"

namespace qos::stream {
namespace {

/// Sorted merge of the time-ordered MMPP base core with the batch overlay.
/// Reproduces the materialized tie order (stable sort of [all base…, all
/// overlay…]): at equal instants base precedes overlay, and overlay arrivals
/// keep generation order.
class BasePlusOverlay {
 public:
  BasePlusOverlay(MmppCore base, BatchCore batches)
      : base_(std::move(base)), batches_(std::move(batches)) {
    base_front_ = base_.next();
  }

  std::optional<Time> next() {
    // Pull whole batches until the frontier clears the current candidate;
    // everything still inside BatchCore then arrives strictly later than
    // whatever we emit now (frontier() is a lower bound — see BatchCore).
    while (batches_.frontier() <= candidate()) {
      cluster_.clear();
      if (!batches_.next_batch(cluster_)) break;
      for (Time a : cluster_) overlay_.push({a, gen_++});
    }
    const Time base = base_front_ ? *base_front_ : kTimeMax;
    const Time over = overlay_.empty() ? kTimeMax : overlay_.top().first;
    if (base == kTimeMax && over == kTimeMax) return std::nullopt;
    if (base <= over) {  // base wins ties: it sorts first materialized
      base_front_ = base_.next();
      return base;
    }
    overlay_.pop();
    return over;
  }

 private:
  Time candidate() const {
    const Time base = base_front_ ? *base_front_ : kTimeMax;
    const Time over = overlay_.empty() ? kTimeMax : overlay_.top().first;
    return std::min(base, over);
  }

  using Tagged = std::pair<Time, std::uint64_t>;  ///< (arrival, gen index)

  MmppCore base_;
  BatchCore batches_;
  std::optional<Time> base_front_;
  std::priority_queue<Tagged, std::vector<Tagged>, std::greater<Tagged>>
      overlay_;
  std::vector<Time> cluster_;
  std::uint64_t gen_ = 0;
};

/// Shared emission tail: addresses and dense seq assigned in yield order —
/// the arrival-sorted order, i.e. exactly where generator.cpp's finalize()
/// assigns them.
class GenStreamBase : public RequestStream {
 protected:
  explicit GenStreamBase(AddressAssigner addr) : addr_(std::move(addr)) {}

  Request emit(Time arrival) {
    Request r;
    r.arrival = arrival;
    r.seq = seq_++;
    addr_.fill(r);
    QOS_ENSURES(request_record_ok(r));
    return r;
  }

 private:
  AddressAssigner addr_;
  std::uint64_t seq_ = 0;
};

class WorkloadStream final : public GenStreamBase {
 public:
  // The cores point into spec_ (declared first), and the three forks must
  // be taken in generate_workload's order: base, batches, addresses.
  WorkloadStream(const WorkloadSpec& spec, Time duration, Rng base_rng,
                 Rng batch_rng, Rng addr_rng)
      : GenStreamBase(AddressAssigner(spec.addresses, addr_rng)),
        spec_(spec),
        merge_(MmppCore(&spec_.states, &spec_.transition, to_sec(duration),
                        base_rng),
               BatchCore(spec_.batches, 0, to_sec(duration), duration,
                         batch_rng)) {}

  static std::unique_ptr<RequestStream> make(const WorkloadSpec& spec,
                                             Time duration,
                                             std::uint64_t seed) {
    QOS_EXPECTS(!spec.states.empty());
    QOS_EXPECTS(duration > 0);
    QOS_EXPECTS(spec.transition.empty() ||
                spec.transition.size() ==
                    spec.states.size() * spec.states.size());
    Rng rng(seed);
    Rng base_rng = rng.fork();
    Rng batch_rng = rng.fork();
    Rng addr_rng = rng.fork();
    return std::make_unique<WorkloadStream>(spec, duration, base_rng,
                                            batch_rng, addr_rng);
  }

  std::optional<Request> next() override {
    auto t = merge_.next();
    if (!t) return std::nullopt;
    return emit(*t);
  }

 private:
  WorkloadSpec spec_;
  BasePlusOverlay merge_;
};

/// Poisson: a single sorted core, no overlay.
class PoissonStream final : public GenStreamBase {
 public:
  PoissonStream(AddressAssigner addr, PoissonWindowCore core)
      : GenStreamBase(std::move(addr)), core_(std::move(core)) {}

  std::optional<Request> next() override {
    auto t = core_.next();
    if (!t) return std::nullopt;
    return emit(*t);
  }

 private:
  PoissonWindowCore core_;
};

}  // namespace

std::unique_ptr<RequestStream> make_workload_stream(const WorkloadSpec& spec,
                                                    Time duration,
                                                    std::uint64_t seed) {
  return WorkloadStream::make(spec, duration, seed);
}

std::unique_ptr<RequestStream> make_poisson_stream(double rate_iops,
                                                   Time duration,
                                                   std::uint64_t seed,
                                                   const AddressSpec& addr) {
  QOS_EXPECTS(rate_iops > 0 && duration > 0);
  Rng rng(seed);
  AddressAssigner assigner(addr, rng.fork());
  return std::make_unique<PoissonStream>(
      std::move(assigner), PoissonWindowCore(rate_iops, 0, to_sec(duration),
                                             rng));
}

std::unique_ptr<RequestStream> make_preset_stream(Workload w, Time duration,
                                                  std::uint64_t seed) {
  return make_workload_stream(preset_spec(w),
                              duration > 0 ? duration : kPresetDuration,
                              seed != 0 ? seed : preset_seed(w));
}

}  // namespace qos::stream
