/// \file sink.hpp
/// The EventSink contract and the fan-out hub.
///
/// Contract (DESIGN.md, "Observability"):
///  * Every handler has a no-op default — a sink overrides only the
///    events it consumes. Handlers must not mutate simulation state;
///    instrumented components pass events by const reference and
///    continue on the exact same path whether or not a sink is attached.
///  * Emission is guarded by a single null-pointer check
///    (ANNOC_OBS_EMIT): with no observer attached the per-event cost is
///    one predictable branch, and `bench/sim_throughput` +
///    `bench/micro_hotpaths` enforce that the off path costs neither
///    cycles (≤1%) nor allocations. Defining ANNOC_DISABLE_OBSERVABILITY
///    (CMake option of the same name) compiles even the branch out.
///  * finish(end) is called exactly once, after the last simulated
///    cycle; sinks close intervals / flush files there.
///  * interests() names the event kinds a sink consumes. The hub hands
///    each kind only to the sinks that declare it, so a sink that
///    overrides few handlers (the checkers) costs nothing on the hot
///    kinds (stalls, GSS admits and agings). The default is every kind;
///    a sink that narrows it must cover every handler it overrides.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/events.hpp"

namespace annoc::obs {

/// One bit per EventSink handler, for EventSink::interests().
enum class EventKind : std::uint8_t {
  kCommand,
  kArbitration,
  kStall,
  kGssAdmit,
  kGssAging,
  kGssStiHit,
  kRequest,
  kFork,
  kJoin,
  kSubpacket,
  kDpqGrant,
  kDpqRetire,
  kFault,
  kWatchdog,
};
inline constexpr std::size_t kNumEventKinds = 14;
static_assert(static_cast<std::size_t>(EventKind::kWatchdog) + 1 ==
              kNumEventKinds);

[[nodiscard]] constexpr std::uint32_t event_bit(EventKind k) {
  return 1u << static_cast<unsigned>(k);
}
inline constexpr std::uint32_t kAllEventKinds = (1u << kNumEventKinds) - 1;

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Bitmask of event_bit(kind) for every kind this sink consumes; the
  /// hub dispatches nothing else to it. finish() reaches every sink.
  [[nodiscard]] virtual std::uint32_t interests() const {
    return kAllEventKinds;
  }

  virtual void on_command(const SdramCommandEvent&) {}
  virtual void on_arbitration(const ArbitrationEvent&) {}
  virtual void on_stall(const StallEvent&) {}
  virtual void on_gss_admit(const GssAdmitEvent&) {}
  virtual void on_gss_aging(const GssAgingEvent&) {}
  virtual void on_gss_sti_hit(const GssStiHitEvent&) {}
  virtual void on_request(const RequestEvent&) {}
  virtual void on_fork(const ForkEvent&) {}
  virtual void on_join(const JoinEvent&) {}
  virtual void on_subpacket(const SubpacketRecord&) {}
  virtual void on_dpq_grant(const DpqGrantEvent&) {}
  virtual void on_dpq_retire(const DpqRetireEvent&) {}
  virtual void on_fault(const FaultEvent&) {}
  virtual void on_watchdog(const WatchdogEvent&) {}

  /// End of run (after the drain phase); `end` is the final cycle.
  virtual void finish(Cycle end) { (void)end; }
};

/// `sink` if it consumes kind `k`, else nullptr. Emitters cache this
/// per kind when a sink is attached, so a kind nobody takes costs the
/// same single null check as no observer at all.
[[nodiscard]] inline EventSink* wants(EventSink* sink, EventKind k) {
  return sink != nullptr && (sink->interests() & event_bit(k)) != 0 ? sink
                                                                     : nullptr;
}

/// Fans every event out to the sinks interested in its kind, in
/// attachment order. The simulator hands components a single
/// EventSink*; attaching the hub makes the CSV tracer, the counter sink,
/// the Perfetto exporter and the checkers peers of each other.
class EventHub final : public EventSink {
 public:
  /// Snapshots `sink->interests()`: a sink's interests must not change
  /// after it is attached.
  void attach(EventSink* sink) {
    if (sink == nullptr) return;
    sinks_.push_back(sink);
    const std::uint32_t mask = sink->interests();
    mask_ |= mask;
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      if ((mask >> k) & 1u) by_kind_[k].push_back(sink);
    }
  }
  [[nodiscard]] std::size_t num_sinks() const { return sinks_.size(); }
  /// The union of the attached sinks' interests: an emitter holding the
  /// hub may skip a kind no sink takes (see wants()).
  [[nodiscard]] std::uint32_t interests() const override { return mask_; }
  /// Sinks that receive events of kind `k`.
  [[nodiscard]] std::size_t num_sinks(EventKind k) const {
    return of(k).size();
  }

  void on_command(const SdramCommandEvent& e) override {
    for (EventSink* s : of(EventKind::kCommand)) s->on_command(e);
  }
  void on_arbitration(const ArbitrationEvent& e) override {
    for (EventSink* s : of(EventKind::kArbitration)) s->on_arbitration(e);
  }
  void on_stall(const StallEvent& e) override {
    for (EventSink* s : of(EventKind::kStall)) s->on_stall(e);
  }
  void on_gss_admit(const GssAdmitEvent& e) override {
    for (EventSink* s : of(EventKind::kGssAdmit)) s->on_gss_admit(e);
  }
  void on_gss_aging(const GssAgingEvent& e) override {
    for (EventSink* s : of(EventKind::kGssAging)) s->on_gss_aging(e);
  }
  void on_gss_sti_hit(const GssStiHitEvent& e) override {
    for (EventSink* s : of(EventKind::kGssStiHit)) s->on_gss_sti_hit(e);
  }
  void on_request(const RequestEvent& e) override {
    for (EventSink* s : of(EventKind::kRequest)) s->on_request(e);
  }
  void on_fork(const ForkEvent& e) override {
    for (EventSink* s : of(EventKind::kFork)) s->on_fork(e);
  }
  void on_join(const JoinEvent& e) override {
    for (EventSink* s : of(EventKind::kJoin)) s->on_join(e);
  }
  void on_subpacket(const SubpacketRecord& e) override {
    for (EventSink* s : of(EventKind::kSubpacket)) s->on_subpacket(e);
  }
  void on_dpq_grant(const DpqGrantEvent& e) override {
    for (EventSink* s : of(EventKind::kDpqGrant)) s->on_dpq_grant(e);
  }
  void on_dpq_retire(const DpqRetireEvent& e) override {
    for (EventSink* s : of(EventKind::kDpqRetire)) s->on_dpq_retire(e);
  }
  void on_fault(const FaultEvent& e) override {
    for (EventSink* s : of(EventKind::kFault)) s->on_fault(e);
  }
  void on_watchdog(const WatchdogEvent& e) override {
    for (EventSink* s : of(EventKind::kWatchdog)) s->on_watchdog(e);
  }
  void finish(Cycle end) override {
    for (EventSink* s : sinks_) s->finish(end);
  }

 private:
  [[nodiscard]] const std::vector<EventSink*>& of(EventKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }

  std::vector<EventSink*> sinks_;
  std::array<std::vector<EventSink*>, kNumEventKinds> by_kind_;
  std::uint32_t mask_ = 0;
};

}  // namespace annoc::obs

/// Emit an event through an optional observer pointer. Compiles to
/// nothing with ANNOC_DISABLE_OBSERVABILITY; otherwise a single branch
/// on the hot path when no observer is attached.
/// Compile-time observability switch, for guards whose condition is more
/// than the null check (e.g. "only in round 0"): write
/// `if (ANNOC_OBS_ENABLED && sink != nullptr && ...)` and the whole
/// block folds away when observability is compiled out.
#ifdef ANNOC_DISABLE_OBSERVABILITY
#define ANNOC_OBS_ENABLED 0
#else
#define ANNOC_OBS_ENABLED 1
#endif

#ifdef ANNOC_DISABLE_OBSERVABILITY
#define ANNOC_OBS_EMIT(sink, call) ((void)0)
#else
#define ANNOC_OBS_EMIT(sink, call)          \
  do {                                      \
    if ((sink) != nullptr) (sink)->call;    \
  } while (0)
#endif
