#include "noc/router.hpp"

#include <algorithm>
#include <ostream>

namespace annoc::noc {

Router::Router(NodeId id, std::uint32_t x, std::uint32_t y,
               std::uint32_t buffer_flits, std::uint32_t pipeline_latency,
               FlowControlKind fc_kind, const GssParams& gss,
               std::uint32_t num_vcs)
    : id_(id),
      x_(x),
      y_(y),
      pipeline_(pipeline_latency),
      fc_kind_(fc_kind),
      num_vcs_(num_vcs) {
  ANNOC_ASSERT_MSG(num_vcs >= 1, "at least one virtual channel");
  inputs_.resize(kNumPorts);
  routed_.resize(kNumPorts);
  for (int p = 0; p < kNumPorts; ++p) {
    inputs_[p].reserve(num_vcs);
    for (std::uint32_t v = 0; v < num_vcs; ++v) {
      inputs_[p].emplace_back(buffer_flits);
    }
    routed_[p].resize(num_vcs);
  }
  outputs_.resize(kNumPorts);
  fc_.reserve(kNumPorts);
  for (int p = 0; p < kNumPorts; ++p) {
    fc_.push_back(make_flow_controller(fc_kind, gss));
  }
}

void Router::set_observer(obs::EventSink* sink) {
  stall_obs_ = obs::wants(sink, obs::EventKind::kStall);
  arb_obs_ = obs::wants(sink, obs::EventKind::kArbitration);
  for (int p = 0; p < kNumPorts; ++p) {
    fc_[p]->attach_observer(sink, id_, static_cast<std::uint8_t>(p));
  }
}

std::optional<std::uint32_t> Router::find_vc(Port p,
                                             const Packet& pkt) const {
  if (flow_buffer(p, pkt).can_accept(pkt.flits)) {
    return pkt.src_core % num_vcs_;
  }
  return std::nullopt;
}

std::uint32_t Router::free_flits(Port p) const {
  std::uint32_t total = 0;
  for (std::uint32_t v = 0; v < num_vcs_; ++v) {
    const InputBuffer& buf = inputs_[p][v];
    total += buf.capacity_flits() -
             std::min(buf.capacity_flits(), buf.used_flits());
  }
  return total;
}

std::size_t Router::buffered_packets() const {
  std::size_t n = 0;
  for (const auto& port : inputs_) {
    for (const InputBuffer& b : port) n += b.size();
  }
  return n;
}

Cycle Router::next_event(Cycle now) const {
  Cycle h = kNeverCycle;
  for (int p = 0; p < kNumPorts; ++p) {
    const Transfer& tr = outputs_[p];
    if (tr.active) h = std::min(h, tr.end);
  }
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const InputBuffer& buf = inputs_[in][v];
      if (buf.empty()) continue;
      const Port out = routed_[in][v].front();
      // A parked head (unreachable destination) cannot move until a
      // fault edge reroutes it — and fault edges are already horizons.
      if (out >= kNumPorts) continue;
      // A head behind a busy output can only move once the transfer
      // frees — already covered by tr.end above (a lower bound is
      // legal; the channel may stay contested longer).
      if (outputs_[out].active) continue;
      const Packet& hd = buf.front();
      const Cycle lands = hd.head_arrival + pipeline_;
      const Cycle eligible = lands > 0 ? lands - 1 : 0;
      // Eligible head on a free output: arbitration (token aging,
      // downstream/sink probing, per-cycle stall counters) must run
      // every cycle.
      h = std::min(h, std::max(eligible, now));
      if (h <= now) return now;
    }
  }
  return h;
}

void Router::on_arrival(Packet&& pkt, Port in, std::uint32_t vc, Port out,
                        Cycle now) {
  ANNOC_ASSERT(vc < num_vcs_);
  if (out >= kNumPorts) {
    // Parked (destination unreachable under the current dead-link set):
    // buffer it without pooling; no flow controller owns it until a
    // reroute assigns a real output.
    routed_[in][vc].push_back(kPortParked);
    inputs_[in][vc].push(std::move(pkt));
    ANNOC_ASSERT(routed_[in][vc].size() == inputs_[in][vc].size());
    return;
  }
  // The newcomer may join `out`'s candidates, and the arrival hook may
  // age the pool's tokens: a memoised refusal there no longer holds.
  memo_[out].down = nullptr;
  // The arrival hook sees every packet already pooled here, excluding
  // the newcomer — append to the pool only afterwards.
  fc_[out]->on_packet_arrival(pkt, pools_[out], now);
  routed_[in][vc].push_back(out);
  InputBuffer& buf = inputs_[in][vc];
  buf.push(std::move(pkt));
  pools_[out].push_back(&buf.back());
  ANNOC_ASSERT(routed_[in][vc].size() == buf.size());
}

void Router::reroute(const std::function<Port(const Packet&)>& fn) {
  for (auto& pool : pools_) pool.clear();
  for (RefusalMemo& m : memo_) m.down = nullptr;
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      InputBuffer& buf = inputs_[in][v];
      auto& routed = routed_[in][v];
      ANNOC_ASSERT(routed.size() == buf.size());
      for (std::size_t i = 0; i < buf.size(); ++i) {
        Packet& p = buf.at(i);
        const Port out = fn(p);
        routed[i] = out;
        if (out < kNumPorts) pools_[out].push_back(&p);
      }
    }
  }
}

std::optional<VcId> Router::arbitrate(Port out, Cycle now) {
  ANNOC_ASSERT(!outputs_[out].active);
  // Candidates are always pool members (a candidate is a buffered head
  // routed to `out`; the pool holds every buffered packet routed to
  // `out`), so an empty pool means the 6-port scan below cannot find
  // anything — and on saturated traffic most (output, cycle) pairs hit
  // exactly this case. O(1) out, no stats touched (the old scan also
  // counted nothing when it came up empty).
  if (pools_[out].empty()) return std::nullopt;
  cand_scratch_.clear();
  source_scratch_.clear();
  scan_until_ = kNeverCycle;
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      InputBuffer& buf = inputs_[in][v];
      if (buf.empty()) continue;
      if (routed_[in][v].front() != out) continue;  // head wants elsewhere
      Packet& hd = buf.front();
      // A head flit is grantable the cycle it lands (pipeline_latency 1
      // = one cycle per hop); extra pipeline stages delay eligibility.
      if (now + 1 < hd.head_arrival + pipeline_) {
        scan_until_ = std::min(scan_until_, hd.head_arrival + pipeline_ - 1);
        continue;
      }
      cand_scratch_.push_back(Candidate{
          &hd, static_cast<std::uint32_t>(in) * num_vcs_ + v});
      source_scratch_.push_back(VcId{static_cast<Port>(in), v});
    }
  }
  if (cand_scratch_.empty()) return std::nullopt;

  ++stats_.arbitration_rounds;
  const std::optional<std::size_t> sel =
      fc_[out]->select(cand_scratch_, pools_[out], now);
  if (!sel) {
    ++stats_.idle_grants;
    scan_until_ = now + 1;
    ANNOC_OBS_EMIT(stall_obs_, on_stall(obs::StallEvent{
                             .at = now,
                             .router = id_,
                             .out_port = out,
                             .cause = obs::StallCause::kGssExclusion}));
    return std::nullopt;
  }
  return source_scratch_[*sel];
}

void Router::note_refused(Port out, const InputBuffer& down, Cycle now) {
  note_blocked(out, obs::StallCause::kDownstreamFull, now);
  const Cycle until = std::min(scan_until_, fc_[out]->repeat_until(now));
  if (until > now + 1) memo_[out] = {&down, down.used_flits(), until};
}

Packet Router::grant(const VcId& in, Port out, Cycle now,
                     Cycle extra_channel_cycles) {
  InputBuffer& buf = inputs_[in.port][in.vc];
  auto& routed = routed_[in.port][in.vc];
  ANNOC_ASSERT(!buf.empty());
  ANNOC_ASSERT(routed.front() == out);
  // Drop the departing head from `out`'s pool before pop() recycles its
  // slot.
  auto& pool = pools_[out];
  const auto pit = std::find(pool.begin(), pool.end(), &buf.front());
  ANNOC_ASSERT(pit != pool.end());
  pool.erase(pit);
  Packet pkt = buf.pop();
  routed.erase(routed.begin());
  // The granted output's candidates changed, and so may those of the
  // output the buffer's new head is routed to.
  memo_[out].down = nullptr;
  if (!routed.empty() && routed.front() < kNumPorts) {
    memo_[routed.front()].down = nullptr;
  }

  fc_[out]->on_scheduled(pkt, now);

  Transfer& tr = outputs_[out];
  ANNOC_ASSERT(!tr.active);
  tr.active = true;
  tr.start = now;
  // One flit per cycle from the grant; the tail cannot leave before it
  // has arrived here (virtual cut-through). A degraded link holds the
  // channel extra cycles on top, and the later tail arrival propagates
  // the stall downstream.
  tr.end = std::max(now + pkt.flits, pkt.tail_arrival + 1) +
           extra_channel_cycles;

  ++stats_.packets_forwarded;
  stats_.flits_forwarded += pkt.flits;
  stats_.output_busy[out] += tr.end - tr.start;
  ANNOC_OBS_EMIT(arb_obs_, on_arbitration(obs::ArbitrationEvent{
                           .at = now,
                           .router = id_,
                           .out_port = out,
                           .packet_id = pkt.id,
                           .core = pkt.src_core,
                           .priority = pkt.is_priority(),
                           .tokens = pkt.gss_tokens,
                           .flits = pkt.flits}));

  // Stamp downstream arrival: the head lands one cycle after the grant,
  // the tail when the channel frees.
  pkt.head_arrival = now + 1;
  pkt.tail_arrival = tr.end;
  return pkt;
}

void Router::dump(std::ostream& os, Cycle now) const {
  bool header = false;
  const auto emit_header = [&] {
    if (!header) {
      os << "  router " << id_ << ":\n";
      header = true;
    }
  };
  for (int p = 0; p < kNumPorts; ++p) {
    const Transfer& tr = outputs_[p];
    if (!tr.active) continue;
    emit_header();
    os << "    out " << to_string(static_cast<Port>(p))
       << ": channel busy until cycle " << tr.end << "\n";
  }
  for (int in = 0; in < kNumPorts; ++in) {
    for (std::uint32_t v = 0; v < num_vcs_; ++v) {
      const InputBuffer& buf = inputs_[in][v];
      if (buf.empty()) continue;
      emit_header();
      os << "    in " << to_string(static_cast<Port>(in)) << "/vc" << v
         << ": " << buf.size() << " pkt(s), " << buf.used_flits() << "/"
         << buf.capacity_flits() << " flits";
      const Port out = routed_[in][v].front();
      const Packet& hd = buf.front();
      os << "; head pkt " << hd.id << " (core " << hd.src_core << " -> node "
         << hd.dst_node << ", " << hd.flits << " flits) via ";
      if (out >= kNumPorts) {
        os << "PARKED (destination unreachable)";
      } else {
        os << to_string(out);
        if (outputs_[out].active) {
          os << " [blocked: output busy until " << outputs_[out].end << "]";
        } else if (now + 1 < hd.head_arrival + pipeline_) {
          os << " [in pipeline until " << hd.head_arrival + pipeline_ << "]";
        } else {
          os << " [eligible: waiting on arbitration/downstream]";
        }
      }
      os << "\n";
    }
  }
}

}  // namespace annoc::noc
