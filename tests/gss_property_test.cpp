/// Property-based tests of the GSS flow controller: invariants that
/// must hold for every PCT, STI variant, and random candidate set.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "noc/fc_gss.hpp"

namespace annoc::noc {
namespace {

class GssProperties
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {
 protected:
  GssFlowController make() {
    const auto [pct, sti] = GetParam();
    GssParams p;
    p.pct = pct;
    p.timing = sdram::make_timing(sdram::DdrGeneration::kDdr3, 800.0);
    return GssFlowController(p, sti);
  }
};

TEST_P(GssProperties, FilterMonotoneInTokens) {
  // More tokens never pass *less*: if a packet passes at level t, it
  // passes at every level above t.
  GssFlowController fc = make();
  fc.on_scheduled([] {
    Packet h;
    h.loc.bank = 1;
    h.loc.row = 10;
    h.rw = RW::kRead;
    return h;
  }(), 0);

  Rng rng(41);
  for (int trial = 0; trial < 500; ++trial) {
    Packet p;
    p.loc.bank = static_cast<BankId>(rng.next_below(4));
    p.loc.row = static_cast<RowId>(rng.next_below(16));
    p.rw = rng.chance(0.5) ? RW::kRead : RW::kWrite;
    bool passed_before = false;
    for (std::uint32_t t = 1; t <= fc.max_token_level(); ++t) {
      const bool passes = fc.passes_filter(p, t, 100);
      EXPECT_TRUE(!passed_before || passes)
          << "monotonicity violated at level " << t;
      passed_before = passed_before || passes;
    }
    EXPECT_TRUE(fc.passes_filter(p, fc.max_token_level(), 100))
        << "top level must admit anything";
  }
}

TEST_P(GssProperties, SelectNeverDeclines) {
  // The priority-bank exclusion only removes best-effort candidates
  // that share a bank with a priority candidate: a priority candidate
  // always survives, and without one nobody is excluded. So select()
  // names a winner for every mix of service classes, including mixes
  // crowded onto two banks, where exclusion fires most.
  struct Mix {
    std::uint32_t banks;
    double p_priority;
    int rounds;
  };
  GssFlowController fc = make();
  Rng rng(17);
  std::vector<Packet> storage(6);
  Cycle now = 10;
  for (const Mix mix : {Mix{8, 0.2, 2000}, Mix{2, 0.0, 500},
                        Mix{2, 0.25, 500}, Mix{2, 0.5, 500},
                        Mix{2, 0.75, 500}, Mix{2, 1.0, 500}}) {
    for (int round = 0; round < mix.rounds; ++round) {
      const std::size_t n = 1 + rng.next_below(5);
      std::vector<Candidate> cands;
      std::vector<Packet*> pool;
      for (std::size_t i = 0; i < n; ++i) {
        Packet& p = storage[i];
        p.loc.bank = static_cast<BankId>(rng.next_below(mix.banks));
        p.loc.row = static_cast<RowId>(rng.next_below(8));
        p.rw = rng.chance(0.5) ? RW::kRead : RW::kWrite;
        p.svc = rng.chance(mix.p_priority) ? ServiceClass::kPriority
                                           : ServiceClass::kBestEffort;
        p.gss_tokens = static_cast<std::uint32_t>(1 + rng.next_below(5));
        p.head_arrival = now - rng.next_below(10);
        p.flits = static_cast<std::uint32_t>(1 + rng.next_below(16));
        cands.push_back({&p, static_cast<std::uint32_t>(i)});
        pool.push_back(&p);
      }
      const auto sel = fc.select(cands, pool, now);
      ASSERT_TRUE(sel.has_value()) << "p_priority " << mix.p_priority;
      ASSERT_LT(*sel, n);
      const Packet& chosen = *cands[*sel].pkt;
      // A best-effort winner must never share a bank with a priority
      // candidate (the exclusion invariant, Algorithm 1 line 5).
      if (!chosen.is_priority()) {
        for (const auto& c : cands) {
          if (c.pkt->is_priority()) {
            EXPECT_NE(c.pkt->loc.bank, chosen.loc.bank)
                << "excluded best-effort packet was selected";
          }
        }
      }
      fc.on_scheduled(chosen, now);
      now += 1 + rng.next_below(8);
    }
  }
}

TEST_P(GssProperties, PriorityCandidateAlwaysSchedulableEventually) {
  // A lone priority packet must be selected immediately regardless of
  // its relation to h(n).
  GssFlowController fc = make();
  Packet h;
  h.loc.bank = 2;
  h.loc.row = 5;
  h.rw = RW::kWrite;
  fc.on_scheduled(h, 0);

  Packet prio;
  prio.loc.bank = 2;   // bank conflict with h(n)
  prio.loc.row = 9;
  prio.rw = RW::kRead;  // data contention too
  prio.svc = ServiceClass::kPriority;
  prio.gss_tokens = std::get<0>(GetParam());
  std::vector<Candidate> cands{{&prio, 0}};
  std::vector<Packet*> pool{&prio};
  const auto sel = fc.select(cands, pool, 5);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 0u);
}

TEST_P(GssProperties, RowHitPreferredOverNonPriorityWhenFilterFails) {
  GssFlowController fc = make();
  Packet h;
  h.loc.bank = 1;
  h.loc.row = 10;
  h.rw = RW::kRead;
  fc.on_scheduled(h, 0);

  // Candidate A: row hit. Candidate B: bank conflict with max tokens.
  Packet a;
  a.loc.bank = 1;
  a.loc.row = 10;
  a.rw = RW::kRead;
  a.gss_tokens = 1;
  Packet b;
  b.loc.bank = 1;
  b.loc.row = 99;
  b.rw = RW::kRead;
  b.gss_tokens = fc.max_token_level();
  std::vector<Candidate> cands{{&a, 0}, {&b, 1}};
  std::vector<Packet*> pool{&a, &b};
  const auto sel = fc.select(cands, pool, 5);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(cands[*sel].pkt, &a)
      << "the T(0) row-hit output precedes best-effort selection";
}

INSTANTIATE_TEST_SUITE_P(
    PctAndSti, GssProperties,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Bool()));

}  // namespace
}  // namespace annoc::noc
