/// \file router.hpp
/// GSS-capable router (Fig. 3) modelled at packet granularity, with
/// wormhole (1 virtual channel) or virtual-channel flow control
/// (Section IV-A offers both; the paper's experiments use wormhole,
/// which stays the default).
///
/// Modelling notes (see DESIGN.md): flits stream at one per cycle and
/// the winner-take-all allocator holds an output channel from the grant
/// until the packet tail has passed, so a transfer of an L-flit packet
/// occupies the channel for L cycles (and cannot finish before the tail
/// has even arrived at this router — virtual cut-through pipelining).
/// The packet object moves to the downstream buffer at grant time with
/// head/tail arrival stamps; the Transfer record models only the channel
/// occupancy. Buffers are accounted in flits; a packet longer than the
/// buffer may still enter a half-empty buffer, emulating wormhole
/// streaming through. With V > 1 virtual channels, each input port has
/// V buffers and the heads of *all* VCs compete for outputs — a packet
/// blocked toward one output no longer blocks packets behind it in
/// other VCs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "noc/flow_controller.hpp"
#include "noc/packet.hpp"
#include "obs/sink.hpp"

namespace annoc::noc {

/// Router ports. kMem exists only on the router adjacent to the memory
/// subsystem (the paper places the subsystem off a mesh corner, Fig. 7).
enum Port : std::uint8_t {
  kPortLocal = 0,
  kPortNorth = 1,
  kPortEast = 2,
  kPortSouth = 3,
  kPortWest = 4,
  kPortMem = 5,
  kNumPorts = 6,
};

/// Sentinel "output port" for a buffered packet whose destination is
/// currently unreachable (dead links partitioned the fabric — see
/// src/fault/). A parked packet stays in its input buffer, is never
/// pooled or arbitrated (so it exerts ordinary buffer backpressure),
/// and gets a real output again at the next Network reroute.
inline constexpr Port kPortParked = kNumPorts;

[[nodiscard]] inline const char* to_string(Port p) {
  switch (p) {
    case kPortLocal: return "local";
    case kPortNorth: return "north";
    case kPortEast: return "east";
    case kPortSouth: return "south";
    case kPortWest: return "west";
    case kPortMem: return "mem";
    default: return "?";
  }
}

/// Flit-accounted input FIFO (one per port per virtual channel).
///
/// Wormhole streaming of packets longer than the buffer is approximated
/// with bounded overcommit: a packet may enter once at least
/// min(flits, capacity/2) slots are free — its head and early flits fit
/// while the tail still occupies upstream links (which the
/// packet-granular model has already released). Occupancy is charged at
/// min(flits, capacity), so a long packet blocks further admissions
/// until it drains, exactly the head-of-line pressure the paper's SAGM
/// splitting relieves. Without this relaxation, a long packet would
/// need a *completely empty* buffer and large-burst cores starve
/// outright under continuous small-packet traffic.
/// Storage is a fixed ring of `capacity_flits` slots: every admitted
/// packet charges at least one flit, so the packet count can never
/// exceed the flit capacity. The ring never reallocates, which keeps
/// pointers to buffered packets stable for the lifetime of the packet —
/// the routers' incremental per-output pools rely on this.
class InputBuffer {
 public:
  explicit InputBuffer(std::uint32_t capacity_flits)
      : capacity_(capacity_flits), slots_(capacity_flits) {
    ANNOC_ASSERT(capacity_flits > 0);
  }

  [[nodiscard]] bool can_accept(std::uint32_t flits) const {
    const std::uint32_t need =
        std::min(flits, std::max(1u, capacity_ / 2));
    return used_ + need <= capacity_;
  }

  void push(Packet&& p) {
    ANNOC_ASSERT(can_accept(p.flits));
    ANNOC_ASSERT(size_ < slots_.size());
    used_ += std::min(p.flits, capacity_);
    slots_[(head_ + size_) % slots_.size()] = std::move(p);
    ++size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Packet& front() { return at(0); }
  [[nodiscard]] const Packet& front() const { return at(0); }
  [[nodiscard]] Packet& at(std::size_t i) {
    ANNOC_ASSERT(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }
  [[nodiscard]] const Packet& at(std::size_t i) const {
    ANNOC_ASSERT(i < size_);
    return slots_[(head_ + i) % slots_.size()];
  }
  [[nodiscard]] Packet& back() { return at(size_ - 1); }
  [[nodiscard]] std::uint32_t used_flits() const { return used_; }
  [[nodiscard]] std::uint32_t capacity_flits() const { return capacity_; }

  Packet pop() {
    ANNOC_ASSERT(size_ > 0);
    Packet p = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    used_ -= std::min(p.flits, capacity_);
    return p;
  }

 private:
  std::uint32_t capacity_;
  std::uint32_t used_ = 0;
  std::vector<Packet> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Output-channel occupancy (winner-take-all hold).
struct Transfer {
  bool active = false;
  Cycle start = 0;
  Cycle end = 0;  ///< channel free again at this cycle
};

struct RouterStats {
  std::uint64_t packets_forwarded = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t arbitration_rounds = 0;
  /// select() declined, leaving the channel idle. No shipped flow
  /// controller declines (GSS's priority-bank exclusion always leaves a
  /// candidate), so this stays 0; kept for custom controllers and the
  /// benchmark's noc.gss_exclusions.
  std::uint64_t idle_grants = 0;
  std::uint64_t blocked_on_downstream = 0;
  /// Cycles each output channel was held by a transfer.
  std::array<std::uint64_t, kNumPorts> output_busy{};
};

/// Identifies one input buffer: (port, virtual channel).
struct VcId {
  Port port = kPortLocal;
  std::uint32_t vc = 0;
};

class Router {
 public:
  Router(NodeId id, std::uint32_t x, std::uint32_t y,
         std::uint32_t buffer_flits, std::uint32_t pipeline_latency,
         FlowControlKind fc_kind, const GssParams& gss,
         std::uint32_t num_vcs = 1);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint32_t x() const { return x_; }
  [[nodiscard]] std::uint32_t y() const { return y_; }
  [[nodiscard]] FlowControlKind fc_kind() const { return fc_kind_; }
  [[nodiscard]] std::uint32_t num_vcs() const { return num_vcs_; }

  [[nodiscard]] InputBuffer& input(Port p, std::uint32_t vc = 0) {
    return inputs_[p][vc];
  }
  [[nodiscard]] const InputBuffer& input(Port p, std::uint32_t vc = 0) const {
    return inputs_[p][vc];
  }
  [[nodiscard]] Transfer& output(Port p) { return outputs_[p]; }
  [[nodiscard]] const Transfer& output(Port p) const { return outputs_[p]; }

  /// Virtual channel of input `p` for packet `pkt`, if it has room.
  /// VCs are keyed by source core (flow), which preserves per-master
  /// packet order end to end — interleaving one stream across VCs would
  /// shuffle its subpackets and break the row-hit trains the GSS
  /// scheduling relies on.
  [[nodiscard]] std::optional<std::uint32_t> find_vc(Port p,
                                                     const Packet& pkt) const;

  /// The input buffer of `p` that find_vc() probes for `pkt`.
  [[nodiscard]] const InputBuffer& flow_buffer(Port p,
                                               const Packet& pkt) const {
    return inputs_[p][pkt.src_core % num_vcs_];
  }

  /// Total free flits across the VCs of input `p` (adaptive-routing
  /// congestion signal).
  [[nodiscard]] std::uint32_t free_flits(Port p) const;

  /// A packet lands in input buffer (`in`, `vc`); `out` is the output
  /// port it will take (precomputed by the network's routing). Runs the
  /// flow controller's arrival hook (token assignment/aging for GSS).
  void on_arrival(Packet&& pkt, Port in, std::uint32_t vc, Port out,
                  Cycle now);

  /// Arbitrate output `out` at cycle `now` (channel must be free) over
  /// the head packets of every (port, vc) wanting `out`. Returns the
  /// winning buffer, or nullopt.
  [[nodiscard]] std::optional<VcId> arbitrate(Port out, Cycle now);

  /// Peek the head packet of input (`in`, `vc`) (must be non-empty).
  [[nodiscard]] const Packet& head(Port in, std::uint32_t vc = 0) const {
    return inputs_[in][vc].front();
  }
  [[nodiscard]] const Packet& head(const VcId& id) const {
    return head(id.port, id.vc);
  }

  /// The first cycle the head of input `in` can compete for its output
  /// once that output is free: its pipeline-eligibility cycle.
  /// kNeverCycle when the buffer is empty, the head is parked, or its
  /// output is busy (the transfer's end comes first).
  [[nodiscard]] Cycle head_due(const VcId& in) const {
    const std::vector<Port>& routed = routed_[in.port][in.vc];
    if (routed.empty() || routed.front() >= kNumPorts ||
        outputs_[routed.front()].active) {
      return kNeverCycle;
    }
    return inputs_[in.port][in.vc].front().head_arrival + pipeline_ - 1;
  }

  /// Pop the winner, mark it h(n) in `out`'s flow controller, occupy
  /// the channel, and return the packet (stamped with downstream
  /// head/tail arrival cycles). `extra_channel_cycles` lengthens the
  /// channel hold past the normal tail time — the degraded-link fault
  /// stall (src/fault/); zero for healthy links.
  [[nodiscard]] Packet grant(const VcId& in, Port out, Cycle now,
                             Cycle extra_channel_cycles = 0);

  /// Recompute the output port of every buffered packet (fault edges:
  /// dead links appearing or healing). Rebuilds the routed_ records and
  /// the per-output pools in canonical (in-port, vc, buffer-index)
  /// order — the order is part of the deterministic contract, since
  /// pool order is visible to the flow controllers. `fn` may return
  /// kPortParked for unreachable destinations. Flow-controller arrival
  /// hooks are deliberately NOT re-run: a reroute is a path change, not
  /// a new arrival, so GSS token state is preserved.
  void reroute(const std::function<Port(const Packet&)>& fn);

  /// Mark a stall on output `out`: a winner was selected but could not
  /// move (`cause` distinguishes full downstream buffers from a busy
  /// memory sink).
  void note_blocked(Port out, obs::StallCause cause, Cycle now) {
    ++stats_.blocked_on_downstream;
    ANNOC_OBS_EMIT(stall_obs_, on_stall(obs::StallEvent{.at = now,
                                                        .router = id_,
                                                        .out_port = out,
                                                        .cause = cause}));
  }

  /// The winner just arbitrated on mesh output `out` was refused by
  /// `down`, its downstream input buffer (find_vc() failed). Counts the
  /// stall like note_blocked(), and memoises the refusal when the round
  /// can repeat verbatim: the flow controller's repeat_until() allows
  /// it, and no head skipped by the scan turns pipeline-eligible within
  /// the next cycle. See DESIGN.md "Refused-round replay".
  void note_refused(Port out, const InputBuffer& down, Cycle now);

  /// Replay the memoised refused round of `out` at `now`, if the memo
  /// still holds (now before its horizon, `down` no emptier than at the
  /// refusal): counts the arbitration round and the kDownstreamFull
  /// stall exactly as arbitrate() + note_refused() would, and returns
  /// true. Otherwise drops the memo and returns false. Arrivals routed
  /// to `out`, grants and reroutes drop memos on their own.
  [[nodiscard]] bool replay_refused(Port out, Cycle now) {
    RefusalMemo& m = memo_[out];
    if (m.down == nullptr) return false;
    if (now < m.until && m.down->used_flits() >= m.used) {
      ++stats_.arbitration_rounds;
      note_blocked(out, obs::StallCause::kDownstreamFull, now);
      return true;
    }
    m.down = nullptr;
    return false;
  }

  /// Whether output `out` holds a refusal memo.
  [[nodiscard]] bool has_refusal_memo(Port out) const {
    return memo_[out].down != nullptr;
  }
  /// Outputs holding a refusal memo.
  [[nodiscard]] std::uint32_t num_refusal_memos() const {
    std::uint32_t n = 0;
    for (const RefusalMemo& m : memo_) n += m.down != nullptr ? 1 : 0;
    return n;
  }
  /// The cycle output `out`'s memo expires (it must hold one).
  [[nodiscard]] Cycle refusal_until(Port out) const {
    ANNOC_ASSERT(memo_[out].down != nullptr);
    return memo_[out].until;
  }

  /// Count `cycles` skipped replays of every memoised output at once:
  /// one arbitration round and one blocked count each per cycle, which
  /// is what replay_refused() counts on a cycle the router was not
  /// ticked (DESIGN.md "Router sleep"). Emits no stall event: a router
  /// whose stalls are observed never skips a replay.
  void count_skipped_replays(Cycle cycles) {
    for (const RefusalMemo& m : memo_) {
      if (m.down == nullptr) continue;
      stats_.arbitration_rounds += cycles;
      stats_.blocked_on_downstream += cycles;
    }
  }

  /// Attach an observer receiving per-channel arbitration/stall events
  /// (and, through the flow controllers, the GSS ladder events). The
  /// sink's interests are read here: attach again after they change.
  void set_observer(obs::EventSink* sink);

  /// Some attached sink consumes stall events: every refused round must
  /// then run (or replay) on its own cycle.
  [[nodiscard]] bool emits_stalls() const {
    return ANNOC_OBS_ENABLED && stall_obs_ != nullptr;
  }

  /// After arbitrate() returned no winner for an output: the earliest
  /// cycle a round there can come out differently with nothing else
  /// changing — a scan-skipped head turning pipeline-eligible, now + 1
  /// after a declined select(), kNeverCycle when no head waits.
  [[nodiscard]] Cycle scan_until() const { return scan_until_; }

  [[nodiscard]] const RouterStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t pipeline_latency() const { return pipeline_; }
  [[nodiscard]] FlowController& controller(Port p) { return *fc_[p]; }

  /// Total packets currently buffered in this router.
  [[nodiscard]] std::size_t buffered_packets() const;

  /// No buffered packet is routed to `out`: arbitration there is a
  /// guaranteed no-op this cycle (hot-path gate for Network::tick).
  [[nodiscard]] bool output_pool_empty(Port out) const {
    return pools_[out].empty();
  }

  /// Earliest future cycle (>= now) at which this router's state can
  /// change on its own: an active transfer completing, or a buffered
  /// head becoming pipeline-eligible toward a free output. Returns
  /// `now` itself when an eligible head already waits on a free output
  /// (arbitration must run densely), kNeverCycle when fully drained.
  /// See DESIGN.md "The next_event contract".
  [[nodiscard]] Cycle next_event(Cycle now) const;

  /// Human-readable occupancy dump (watchdog diagnostics): busy
  /// outputs, per-buffer fill, each head packet with its routed output
  /// and what blocks it. Quiet (no output) when the router is idle.
  void dump(std::ostream& os, Cycle now) const;

 private:
  NodeId id_;
  std::uint32_t x_, y_;
  std::uint32_t pipeline_;
  FlowControlKind fc_kind_;
  std::uint32_t num_vcs_;
  /// inputs_[port][vc]
  std::vector<std::vector<InputBuffer>> inputs_;
  std::vector<Transfer> outputs_;
  std::vector<std::unique_ptr<FlowController>> fc_;
  /// routed_[port][vc][i] is the output port of inputs_[port][vc].at(i).
  std::vector<std::vector<std::vector<Port>>> routed_;
  /// pools_[out]: every waiting packet in this router routed to output
  /// `out`, maintained incrementally on arrival/grant (pointers are
  /// stable: InputBuffer storage never reallocates). Replaces the
  /// per-arrival vector rebuild the old pool_for() did.
  std::array<std::vector<Packet*>, kNumPorts> pools_;
  /// Scratch buffers reused across arbitrate() calls (no steady-state
  /// allocation on the hot path).
  std::vector<Candidate> cand_scratch_;
  std::vector<VcId> source_scratch_;
  /// Set by the last arbitrate(): the earliest cycle at which a head
  /// routed to that output, but not yet pipeline-eligible, joins the
  /// candidates (kNeverCycle if none waits); now + 1 when select()
  /// declined.
  Cycle scan_until_ = kNeverCycle;
  /// A refused round of one output, replayed by replay_refused().
  struct RefusalMemo {
    const InputBuffer* down = nullptr;  ///< refusing buffer; null: none
    std::uint32_t used = 0;             ///< down->used_flits() then
    Cycle until = 0;                    ///< replay only before this cycle
  };
  std::array<RefusalMemo, kNumPorts> memo_{};
  RouterStats stats_;
  /// Per-kind observers: null when no attached sink takes the kind.
  obs::EventSink* stall_obs_ = nullptr;
  obs::EventSink* arb_obs_ = nullptr;
};

}  // namespace annoc::noc
