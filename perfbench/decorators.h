// Timing decorators for the traced run.  Each wraps one public interface of
// a library layer and brackets every call with a ledger Scope; nothing under
// src/ is instrumented.  Every decorator forwards all virtual members, so a
// decorated run makes exactly the calls an undecorated one makes and yields
// identical outputs (the self-check compares the digests).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "ledger.h"
#include "obs/sink.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "stream/stream.h"

namespace perfbench {

/// RequestStream decorator.  `last_end_ns`, when set, receives the instant
/// each call returned (the sharded barrier is measured from the last pull).
class TimedStream final : public qos::stream::RequestStream {
 public:
  TimedStream(std::unique_ptr<qos::stream::RequestStream> inner, int slot,
              std::int64_t* last_end_ns = nullptr)
      : inner_(std::move(inner)), slot_(slot), last_end_ns_(last_end_ns) {}

  std::optional<qos::Request> next() override {
    std::optional<qos::Request> r;
    {
      Scope scope(slot_);
      r = inner_->next();
      if (r) scope.set_seq(r->seq);
    }
    if (last_end_ns_ != nullptr) *last_end_ns_ = now_ns();
    return r;
  }

 private:
  std::unique_ptr<qos::stream::RequestStream> inner_;
  int slot_;
  std::int64_t* last_end_ns_;
};

/// Scheduler decorator; `policy` indexes kPolicyNames.
class TimedScheduler final : public qos::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<qos::Scheduler> inner, int policy)
      : inner_(std::move(inner)), policy_(policy) {}

  void attach_observability(qos::EventSink* sink,
                            qos::MetricRegistry* registry) override {
    inner_->attach_observability(sink, registry);
  }
  int server_count() const override { return inner_->server_count(); }
  bool fans_out() const override { return inner_->fans_out(); }
  bool arrival_joins_primary(qos::Time now) override {
    return inner_->arrival_joins_primary(now);
  }

  void on_arrival(const qos::Request& r, qos::Time now) override {
    Scope scope(kArrival + policy_);
    scope.set_seq(r.seq);
    inner_->on_arrival(r, now);
  }

  std::optional<Dispatch> next_for(int server, qos::Time now) override {
    Scope scope(kNextFor + policy_);
    auto d = inner_->next_for(server, now);
    if (d) {
      scope.set_seq(d->request.seq);
      scope.hit();
    }
    return d;
  }

  void on_complete(const qos::Request& r, qos::ServiceClass klass, int server,
                   qos::Time now) override {
    Scope scope(kComplete + policy_);
    scope.set_seq(r.seq);
    inner_->on_complete(r, klass, server, now);
  }

 private:
  std::unique_ptr<qos::Scheduler> inner_;
  int policy_;
};

class TimedServer final : public qos::Server {
 public:
  explicit TimedServer(std::unique_ptr<qos::Server> inner)
      : inner_(std::move(inner)) {}

  qos::Time service_duration(const qos::Request& r, qos::Time now) override {
    Scope scope(kServer);
    scope.set_seq(r.seq);
    return inner_->service_duration(r, now);
  }
  void attach_observability(qos::EventSink* sink) override {
    inner_->attach_observability(sink);
  }

 private:
  std::unique_ptr<qos::Server> inner_;
};

/// EventSink decorator in front of a borrowed sink (the Tracer).
class TimedSink final : public qos::EventSink {
 public:
  explicit TimedSink(qos::EventSink& inner) : inner_(&inner) {}

  void on_event(const qos::Event& e) override {
    Scope scope(kSink);
    scope.set_seq(e.seq);
    inner_->on_event(e);
  }

 private:
  qos::EventSink* inner_;
};

}  // namespace perfbench
