/// \file fc_basic.cpp
/// The three baseline flow controllers: round-robin (CONV),
/// priority-first (PFS add-on), and the SDRAM-aware controller of [4]
/// (Jang & Pan, DAC'09).
#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/assert.hpp"
#include "noc/fc_gss.hpp"
#include "noc/flow_controller.hpp"

namespace annoc::noc {
namespace {

/// Conventional router arbitration: rotate over input ports. The port
/// pointer advances on every grant, so all inputs share the channel
/// fairly regardless of packet contents. select() moves that pointer,
/// so a round never repeats (repeat_until keeps its "never" default).
class RoundRobinFc final : public FlowController {
 public:
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    (void)now;
    ANNOC_ASSERT(!candidates.empty());
    // Pick the candidate whose port is the first one strictly after the
    // last winner's port in cyclic order.
    std::size_t best = 0;
    std::uint32_t best_dist = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::uint32_t p = candidates[i].port;
      const std::uint32_t dist = (p + kMaxPorts - 1 - last_port_) % kMaxPorts;
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    last_port_ = candidates[best].port;
    return best;
  }

  FlowControlKind kind() const override { return FlowControlKind::kRoundRobin; }

 private:
  static constexpr std::uint32_t kMaxPorts = 64;  // ports x virtual channels
  std::uint32_t last_port_ = kMaxPorts - 1;
};

/// Priority-first: any priority candidate beats every best-effort one;
/// ties broken oldest-first (then round-robin-ish by port).
class PriorityFirstFc final : public FlowController {
 public:
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    (void)now;
    ANNOC_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (beats(*candidates[i].pkt, *candidates[best].pkt)) best = i;
    }
    return best;
  }

  /// Stateless and time-independent: the same candidates always pick
  /// the same winner.
  Cycle repeat_until(Cycle now) const override {
    (void)now;
    return kNeverCycle;
  }

  FlowControlKind kind() const override {
    return FlowControlKind::kPriorityFirst;
  }

 private:
  [[nodiscard]] static bool beats(const Packet& a, const Packet& b) {
    if (a.is_priority() != b.is_priority()) return a.is_priority();
    return a.head_arrival < b.head_arrival;  // oldest first
  }
};

/// [4]: schedule for SDRAM friendliness relative to the last scheduled
/// packet h(n): row-hit first, then bank-interleave without data
/// contention, then bank-interleave with contention, finally bank
/// conflict; age breaks ties and a starvation cap promotes very old
/// packets. The base variant has no notion of priority (pure
/// best-effort), which is exactly the weakness the GSS router
/// addresses; the +PFS variant bolts a priority-first stage on top —
/// priority packets always win, with SDRAM friendliness deciding only
/// among them and among the remaining best-effort packets.
class SdramAwareFc : public FlowController {
 public:
  std::optional<std::size_t> select(const std::vector<Candidate>& candidates,
                                    const std::vector<Packet*>& waiting,
                                    Cycle now) override {
    (void)waiting;
    ANNOC_ASSERT(!candidates.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (score(*candidates[i].pkt, now) < score(*candidates[best].pkt, now)) {
        best = i;
      }
    }
    // The only time dependence of score() is the starvation cap: the
    // ranking can change no earlier than the first candidate crosses it.
    starve_horizon_ = kNeverCycle;
    for (const Candidate& c : candidates) {
      const Cycle starves = c.pkt->head_arrival + kStarvationCap + 1;
      if (starves > now) starve_horizon_ = std::min(starve_horizon_, starves);
    }
    return best;
  }

  Cycle repeat_until(Cycle now) const override {
    (void)now;
    return starve_horizon_;
  }

  void on_scheduled(const Packet& pkt, Cycle now) override {
    (void)now;
    last_ = pkt;
    has_last_ = true;
  }

  FlowControlKind kind() const override { return FlowControlKind::kSdramAware; }

 protected:
  /// Lower is better. Rank 0..3 by SDRAM relation; starved packets
  /// (waiting beyond kStarvationCap) jump to rank 0 regardless.
  [[nodiscard]] virtual std::uint64_t score(const Packet& p, Cycle now) const {
    std::uint64_t rank = 0;
    if (has_last_) {
      if (SdramRelation::row_hit(last_, p)) {
        rank = 0;
      } else if (SdramRelation::bank_interleave(last_, p)) {
        rank = SdramRelation::data_contention(last_, p) ? 2 : 1;
      } else {
        rank = 3;  // bank conflict
      }
    }
    const Cycle waited = now >= p.head_arrival ? now - p.head_arrival : 0;
    if (waited > kStarvationCap) rank = 0;
    // Combine rank with age so equal ranks serve oldest-first.
    return (rank << 48) | (p.head_arrival & 0xffffffffffffULL);
  }

  static constexpr Cycle kStarvationCap = 512;
  Packet last_{};
  bool has_last_ = false;
  /// First cycle after the last select() at which a candidate starves.
  Cycle starve_horizon_ = 0;
};

/// [4]+PFS.
class SdramAwarePfsFc final : public SdramAwareFc {
 public:
  FlowControlKind kind() const override {
    return FlowControlKind::kSdramAwarePfs;
  }

 protected:
  std::uint64_t score(const Packet& p, Cycle now) const override {
    const std::uint64_t base = SdramAwareFc::score(p, now);
    // Priority packets sort strictly before every best-effort packet.
    return p.is_priority() ? base : base | (1ULL << 52);
  }
};

}  // namespace

std::unique_ptr<FlowController> make_flow_controller(FlowControlKind kind,
                                                     const GssParams& gss) {
  switch (kind) {
    case FlowControlKind::kRoundRobin:
      return std::make_unique<RoundRobinFc>();
    case FlowControlKind::kPriorityFirst:
      return std::make_unique<PriorityFirstFc>();
    case FlowControlKind::kSdramAware:
      return std::make_unique<SdramAwareFc>();
    case FlowControlKind::kSdramAwarePfs:
      return std::make_unique<SdramAwarePfsFc>();
    case FlowControlKind::kGss:
      return std::make_unique<GssFlowController>(gss, /*sti=*/false);
    case FlowControlKind::kGssSti:
      return std::make_unique<GssFlowController>(gss, /*sti=*/true);
  }
  ANNOC_ASSERT_MSG(false, "unknown flow controller kind");
  return nullptr;
}

}  // namespace annoc::noc
