/// \file flow_controller.hpp
/// Flow-controller (channel arbitration) interface and the registry of
/// the four policies the paper compares.
///
/// A flow controller owns the scheduling decision for one router output
/// channel: among the head packets of the input buffers requesting that
/// channel, which is allocated next (winner-take-all: the channel is
/// held until the packet's tail passes). The GSS controller additionally
/// maintains per-packet tokens and per-bank turnaround counters.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"
#include "sdram/config.hpp"

namespace annoc::noc {

enum class FlowControlKind : std::uint8_t {
  kRoundRobin,      ///< conventional best-effort (CONV)
  kPriorityFirst,   ///< PFS: priority packets first, else round-robin
  kSdramAware,      ///< [4] (DAC'09): SDRAM-friendly ordering, no priority
  kSdramAwarePfs,   ///< [4]+PFS: priority first, SDRAM-aware among the rest
  kGss,             ///< this paper, Fig. 4(a) filters
  kGssSti,          ///< this paper, Fig. 4(b): adds short-turnaround filter
};

[[nodiscard]] inline const char* to_string(FlowControlKind k) {
  switch (k) {
    case FlowControlKind::kRoundRobin: return "round-robin";
    case FlowControlKind::kPriorityFirst: return "priority-first";
    case FlowControlKind::kSdramAware: return "sdram-aware[4]";
    case FlowControlKind::kSdramAwarePfs: return "sdram-aware[4]+PFS";
    case FlowControlKind::kGss: return "GSS";
    case FlowControlKind::kGssSti: return "GSS+STI";
  }
  return "?";
}

/// One arbitration candidate: the head packet of input port `port`.
struct Candidate {
  Packet* pkt = nullptr;
  std::uint32_t port = 0;
};

/// Tunables for the GSS controller (Algorithm 1).
struct GssParams {
  std::uint32_t pct = 4;  ///< initial tokens for a priority packet (2..max)
  sdram::Timing timing{}; ///< for the STI bank counters (tWR, tRP)
};

class FlowController {
 public:
  virtual ~FlowController() = default;

  /// A new packet entered this controller's candidate pool (it arrived
  /// at an input buffer routed to this output). `waiting` is every
  /// packet currently pooled here, excluding `pkt` itself.
  virtual void on_packet_arrival(Packet& pkt,
                                 const std::vector<Packet*>& waiting,
                                 Cycle now) {
    (void)pkt;
    (void)waiting;
    (void)now;
  }

  /// Choose the next packet to allocate the channel to, or nullopt to
  /// leave the channel idle this round. None of the shipped controllers
  /// declines; the option exists for custom policies.
  /// `waiting` is the full pool (candidates are its subset that are
  /// buffer heads). Must not mutate packets other than token fields.
  [[nodiscard]] virtual std::optional<std::size_t> select(
      const std::vector<Candidate>& candidates,
      const std::vector<Packet*>& waiting, Cycle now) = 0;

  /// The selected packet's transfer begins: it becomes h(n).
  virtual void on_scheduled(const Packet& pkt, Cycle now) {
    (void)pkt;
    (void)now;
  }

  /// Replay horizon of the last select(), which ran at `now` (DESIGN.md
  /// "Refused-round replay"). For every cycle t with now < t < the
  /// returned cycle, calling select() again at t — with the same
  /// candidates, the same pool, no packet in it changed, and neither
  /// on_packet_arrival() nor on_scheduled() run in between — would
  /// return the same index, change no controller or packet state and
  /// emit no event. The router then replays a refused round without
  /// calling select(). Returning `now` (the default) forbids replay;
  /// kNeverCycle allows it until one of those inputs changes.
  [[nodiscard]] virtual Cycle repeat_until(Cycle now) const { return now; }

  [[nodiscard]] virtual FlowControlKind kind() const = 0;

  /// Attach the observability sink; `router`/`port` identify this
  /// controller's output channel in the emitted events. nullptr (the
  /// default) keeps the zero-overhead off state. The sink's interests
  /// are read here: attach again after they change.
  void attach_observer(obs::EventSink* sink, std::uint32_t router,
                       std::uint8_t port) {
    admit_obs_ = obs::wants(sink, obs::EventKind::kGssAdmit);
    aging_obs_ = obs::wants(sink, obs::EventKind::kGssAging);
    sti_obs_ = obs::wants(sink, obs::EventKind::kGssStiHit);
    obs_router_ = router;
    obs_port_ = port;
  }

 protected:
  /// Per-kind observers: null when no attached sink takes the kind.
  obs::EventSink* admit_obs_ = nullptr;
  obs::EventSink* aging_obs_ = nullptr;
  obs::EventSink* sti_obs_ = nullptr;
  std::uint32_t obs_router_ = 0;
  std::uint8_t obs_port_ = 0;
};

/// Factory. `gss` is consulted only for the GSS kinds.
[[nodiscard]] std::unique_ptr<FlowController> make_flow_controller(
    FlowControlKind kind, const GssParams& gss = {});

}  // namespace annoc::noc
