#include "noc/fc_gss.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace annoc::noc {
namespace {

/// Is a *candidate* priority packet addressing the same bank as the
/// best-effort candidate `p`? If so, `p` is excluded until that
/// priority packet has been scheduled (Algorithm 1 line 5). Exclusion
/// is evaluated among candidates only: a priority packet buried behind
/// another packet in its in-order buffer cannot be scheduled anyway, so
/// excluding on its behalf would only idle the channel (and can
/// deadlock two buffers against each other).
[[nodiscard]] bool excluded_by_priority(
    const Packet& p, const std::vector<Candidate>& candidates) {
  if (p.is_priority()) return false;
  for (const Candidate& c : candidates) {
    if (c.pkt != &p && c.pkt->is_priority() && c.pkt->loc.bank == p.loc.bank) {
      return true;
    }
  }
  return false;
}

}  // namespace

GssFlowController::GssFlowController(const GssParams& params, bool sti)
    : params_(params), sti_(sti) {
  ANNOC_ASSERT_MSG(params_.pct >= 1, "PCT must be at least 1");
  bank_ready_at_.fill(0);
  // Cap PCT at the ladder height so a priority packet never indexes past
  // the top filter.
  params_.pct = std::min(params_.pct, max_token_level());
}

void GssFlowController::on_packet_arrival(Packet& pkt,
                                          const std::vector<Packet*>& waiting,
                                          Cycle now) {
  // Algorithm 1 lines 2-3: aging — every packet already waiting gains a
  // token (capped at the ladder top; extra tokens add nothing).
  std::uint32_t aged = 0;
  for (Packet* w : waiting) {
    if (w != nullptr && w->gss_tokens < max_token_level()) {
      ++w->gss_tokens;
      ++aged;
    }
  }
  if (ANNOC_OBS_ENABLED && aging_obs_ != nullptr && aged > 0) {
    aging_obs_->on_gss_aging(obs::GssAgingEvent{.at = now,
                                                .router = obs_router_,
                                                .out_port = obs_port_,
                                                .packets_aged = aged,
                                                .retry_round = false});
  }
  // Lines 8-12: initial tokens by service class.
  pkt.gss_tokens = pkt.is_priority() ? params_.pct : 1u;
}

bool GssFlowController::sti_violation(const Packet& p, Cycle now) const {
  if (!sti_) return false;
  const std::size_t b = p.loc.bank % kMaxBanks;
  if (now >= bank_ready_at_[b]) return false;
  // A row hit does not need a re-activation, so the counter is
  // irrelevant; only accesses that would open the bank anew are hit.
  if (has_last_ && SdramRelation::row_hit(last_, p)) return false;
  return true;
}

bool GssFlowController::passes_filter(const Packet& p, std::uint32_t tokens,
                                      Cycle now) const {
  if (!has_last_) return true;  // nothing scheduled yet: everything passes
  const bool conflict = SdramRelation::bank_conflict(last_, p);
  const bool contention = SdramRelation::data_contention(last_, p);
  const bool sti_bad = sti_violation(p, now);

  const std::uint32_t level = std::min(tokens, max_token_level());
  if (!sti_) {
    // Fig. 4(a) ladder, 5 levels.
    switch (level) {
      case 0:
      case 1:
      case 2: return !conflict && !contention;
      case 3:
      case 4: return !conflict;
      default: return true;  // level 5: admit anything
    }
  }
  // Fig. 4(b) ladder, 6 levels.
  switch (level) {
    case 0:
    case 1:
    case 2: return !conflict && !contention && !sti_bad;
    case 3: return !conflict && !contention;
    case 4:
    case 5: return !conflict;
    default: return true;  // level 6: admit anything
  }
}

std::optional<std::size_t> GssFlowController::select(
    const std::vector<Candidate>& candidates,
    const std::vector<Packet*>& waiting, Cycle now) {
  ANNOC_ASSERT(!candidates.empty());

  // Candidates surviving the priority-bank exclusion.
  std::vector<std::size_t>& eligible = eligible_scratch_;
  eligible.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!excluded_by_priority(*candidates[i].pkt, candidates)) {
      eligible.push_back(i);
    }
  }
  // A priority candidate is never excluded, and with no priority
  // candidate nobody is, so the channel never idles here.
  ANNOC_ASSERT_MSG(!eligible.empty(),
                   "priority-bank exclusion removed every candidate");

  // Algorithm 1 lines 14-25 with the retry loop folded in: conceptually
  // we refilter with +1 token per round until someone passes; because
  // the top level admits anything, at most max_token_level() rounds are
  // needed. The token increments persist (line 21 mutates t_i).
  for (std::uint32_t round = 0; round <= max_token_level(); ++round) {
    std::optional<std::size_t> best_priority;
    std::optional<std::size_t> best_rowhit;
    std::optional<std::size_t> best_effort;

    // SDRAM-friendliness rank relative to h(n) (0 best), used to break
    // token ties: under saturation every waiting packet saturates at the
    // token cap, and without this tie-break GSS would degrade to FIFO
    // among filter-passers, losing the bank-interleaving quality that
    // [4] has.
    auto rank = [&](const Packet& p) -> std::uint32_t {
      if (!has_last_) return 0;
      if (SdramRelation::row_hit(last_, p)) return 0;
      if (SdramRelation::bank_interleave(last_, p)) {
        std::uint32_t r = SdramRelation::data_contention(last_, p) ? 2u : 1u;
        // STI variant: a bank still turning around is worse than a
        // clean interleave (the re-activation would stall) but still
        // preferable to a bank conflict.
        if (sti_violation(p, now)) r = 3;
        return r;
      }
      return sti_violation(p, now) ? 5u : 4u;  // bank conflict
    };
    // Priority packets order by tokens (PCT semantics), then rank, then
    // age; best-effort passers order by SDRAM rank first — aging is
    // already what the token-indexed filter ladder encodes, and letting
    // a saturated-token bank-conflict packet beat a fresh interleaving
    // one would forfeit exactly the scheduling quality [4] has (the
    // paper's Fig. 4 leaves this tie-break unspecified; see DESIGN.md).
    auto better_priority = [&](std::size_t a, std::size_t b) {
      const Packet& pa = *candidates[a].pkt;
      const Packet& pb = *candidates[b].pkt;
      if (pa.gss_tokens != pb.gss_tokens) return pa.gss_tokens > pb.gss_tokens;
      const std::uint32_t ra = rank(pa), rb = rank(pb);
      if (ra != rb) return ra < rb;
      return pa.head_arrival < pb.head_arrival;
    };
    auto better = [&](std::size_t a, std::size_t b) {
      const Packet& pa = *candidates[a].pkt;
      const Packet& pb = *candidates[b].pkt;
      const std::uint32_t ra = rank(pa), rb = rank(pb);
      if (ra != rb) return ra < rb;
      if (pa.gss_tokens != pb.gss_tokens) return pa.gss_tokens > pb.gss_tokens;
      return pa.head_arrival < pb.head_arrival;
    };

    bool sti_hit = false;
    for (const std::size_t i : eligible) {
      const Packet& p = *candidates[i].pkt;
      const bool passes = passes_filter(p, p.gss_tokens, now);
      // T(0) path: every packet also feeds the row-hit filter.
      const bool rowhit = has_last_ && SdramRelation::row_hit(last_, p);
      // STI counter hits are reported once per arbitration (round 0
      // only — later rounds re-examine the same candidates).
      if (round == 0 && sti_violation(p, now)) {
        sti_hit = true;
        if (ANNOC_OBS_ENABLED && sti_obs_ != nullptr) {
          sti_obs_->on_gss_sti_hit(obs::GssStiHitEvent{
              .at = now,
              .router = obs_router_,
              .out_port = obs_port_,
              .packet_id = p.id,
              .bank = p.loc.bank,
              .ready_at = bank_ready_at_[p.loc.bank % kMaxBanks]});
        }
      }
      if (passes && p.is_priority()) {
        if (!best_priority || better_priority(i, *best_priority)) {
          best_priority = i;
        }
      }
      if (rowhit) {
        if (!best_rowhit || better(i, *best_rowhit)) best_rowhit = i;
      }
      if (passes && !p.is_priority()) {
        if (!best_effort || better(i, *best_effort)) best_effort = i;
      }
    }

    // SP = A ? B ? C (priority ? row-hit ? best-effort).
    pending_via_rowhit_ = false;
    repeatable_ = round == 0 && !sti_hit;
    if (best_priority) return best_priority;
    if (best_rowhit) {
      pending_via_rowhit_ = true;
      return best_rowhit;
    }
    if (best_effort) return best_effort;

    // Nobody passed: grant one more token to every waiting packet and
    // refilter (lines 19-24). `waiting` is the full pool and already
    // contains the candidate head packets.
    std::uint32_t aged = 0;
    for (Packet* w : waiting) {
      if (w != nullptr && w->gss_tokens < max_token_level()) {
        ++w->gss_tokens;
        ++aged;
      }
    }
    if (ANNOC_OBS_ENABLED && aging_obs_ != nullptr) {
      aging_obs_->on_gss_aging(obs::GssAgingEvent{.at = now,
                                                  .router = obs_router_,
                                                  .out_port = obs_port_,
                                                  .packets_aged = aged,
                                                  .retry_round = true});
    }
  }
  // Unreachable: the top filter level admits everything.
  ANNOC_ASSERT_MSG(false, "GSS filter ladder failed to admit any packet");
  return std::nullopt;
}

void GssFlowController::on_scheduled(const Packet& pkt, Cycle now) {
  // Admits are reported here, not in select(): a select() winner can
  // still be vetoed by a full downstream buffer, and the ladder-level
  // occupancy should count what was actually scheduled.
  ANNOC_OBS_EMIT(
      admit_obs_, on_gss_admit(obs::GssAdmitEvent{
                .at = now,
                .router = obs_router_,
                .out_port = obs_port_,
                .packet_id = pkt.id,
                .level = static_cast<std::uint8_t>(
                    std::min(pkt.gss_tokens, max_token_level())),
                .priority = pkt.is_priority(),
                .via_rowhit = pending_via_rowhit_}));
  last_ = pkt;
  has_last_ = true;
  if (!sti_) return;
  // Per Section IV-B: after the last data beat, the bank needs
  // tWR + tRP (write) or tRP (read) before it can be re-activated.
  // The last data beat is approximated from the packet's *useful data
  // beats* at two beats per DDR bus cycle. Using `pkt.flits` here would
  // overestimate: a packet always carries at least one (sideband) flit
  // even when it moves zero or one data beat, so sub-beat packets would
  // arm the counter one cycle too long.
  const Cycle data_end = now + (pkt.useful_beats + 1) / 2;
  const std::size_t b = pkt.loc.bank % kMaxBanks;
  const Cycle ready =
      pkt.rw == RW::kWrite
          ? data_end + params_.timing.twr + params_.timing.trp
          : data_end + params_.timing.trp;
  bank_ready_at_[b] = std::max(bank_ready_at_[b], ready);
}

}  // namespace annoc::noc
