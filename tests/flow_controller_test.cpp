/// Tests for the baseline flow controllers: round-robin (CONV),
/// priority-first (PFS) and the SDRAM-aware controller of [4], plus its
/// +PFS variant.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "noc/flow_controller.hpp"

namespace annoc::noc {
namespace {

Packet mk(BankId bank, RowId row, RW rw, Cycle arrived,
          ServiceClass svc = ServiceClass::kBestEffort) {
  Packet p;
  p.loc.bank = bank;
  p.loc.row = row;
  p.rw = rw;
  p.head_arrival = arrived;
  p.svc = svc;
  return p;
}

std::vector<Candidate> cands(std::vector<Packet>& pkts) {
  std::vector<Candidate> c;
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    c.push_back({&pkts[i], static_cast<std::uint32_t>(i)});
  }
  return c;
}

std::vector<Packet*> pool(std::vector<Packet>& pkts) {
  std::vector<Packet*> p;
  for (auto& x : pkts) p.push_back(&x);
  return p;
}

TEST(SdramRelation, Definitions) {
  const Packet a = mk(1, 10, RW::kRead, 0);
  EXPECT_TRUE(SdramRelation::row_hit(a, mk(1, 10, RW::kRead, 0)));
  EXPECT_TRUE(SdramRelation::bank_conflict(a, mk(1, 11, RW::kRead, 0)));
  EXPECT_TRUE(SdramRelation::bank_interleave(a, mk(2, 10, RW::kRead, 0)));
  EXPECT_TRUE(SdramRelation::data_contention(a, mk(2, 10, RW::kWrite, 0)));
  EXPECT_FALSE(SdramRelation::bank_conflict(a, mk(2, 11, RW::kRead, 0)));
  EXPECT_FALSE(SdramRelation::row_hit(a, mk(1, 11, RW::kRead, 0)));
}

TEST(RoundRobinFc, RotatesAcrossPorts) {
  auto fc = make_flow_controller(FlowControlKind::kRoundRobin);
  std::vector<Packet> pkts(3);
  auto c = cands(pkts);
  auto p = pool(pkts);
  std::vector<std::uint32_t> grants;
  for (int i = 0; i < 6; ++i) {
    auto sel = fc->select(c, p, i);
    ASSERT_TRUE(sel.has_value());
    grants.push_back(c[*sel].port);
    fc->on_scheduled(*c[*sel].pkt, i);
  }
  // Every port served twice over six grants.
  int counts[3] = {0, 0, 0};
  for (auto g : grants) ++counts[g];
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  // No port served twice in a row while others wait.
  for (std::size_t i = 1; i < grants.size(); ++i) {
    EXPECT_NE(grants[i], grants[i - 1]);
  }
}

TEST(PriorityFirstFc, PriorityBeatsBestEffort) {
  auto fc = make_flow_controller(FlowControlKind::kPriorityFirst);
  std::vector<Packet> pkts;
  pkts.push_back(mk(0, 0, RW::kRead, 5));
  pkts.push_back(mk(1, 0, RW::kRead, 10, ServiceClass::kPriority));
  pkts.push_back(mk(2, 0, RW::kRead, 1));
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 20);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);  // priority wins despite being youngest
}

TEST(PriorityFirstFc, OldestFirstAmongEquals) {
  auto fc = make_flow_controller(FlowControlKind::kPriorityFirst);
  std::vector<Packet> pkts;
  pkts.push_back(mk(0, 0, RW::kRead, 9));
  pkts.push_back(mk(1, 0, RW::kRead, 3));
  pkts.push_back(mk(2, 0, RW::kRead, 6));
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 20);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(SdramAwareFc, PrefersRowHit) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAware);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);  // h(n): bank 1 row 10
  std::vector<Packet> pkts;
  pkts.push_back(mk(1, 11, RW::kRead, 1));  // bank conflict
  pkts.push_back(mk(1, 10, RW::kRead, 5));  // row hit (younger)
  pkts.push_back(mk(2, 10, RW::kRead, 2));  // interleave
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(SdramAwareFc, PrefersInterleaveWithoutContention) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAware);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);
  std::vector<Packet> pkts;
  pkts.push_back(mk(2, 10, RW::kWrite, 1));  // interleave + contention
  pkts.push_back(mk(3, 10, RW::kRead, 5));   // interleave, same direction
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(SdramAwareFc, AvoidsBankConflictLast) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAware);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);
  std::vector<Packet> pkts;
  pkts.push_back(mk(1, 12, RW::kRead, 0));   // conflict, oldest
  pkts.push_back(mk(4, 9, RW::kWrite, 8));   // interleave w/ contention
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(SdramAwareFc, StarvationCapPromotesAncientPackets) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAware);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);
  std::vector<Packet> pkts;
  pkts.push_back(mk(1, 12, RW::kRead, 0));    // conflict but ancient
  pkts.push_back(mk(2, 10, RW::kRead, 999));  // fresh interleave
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, /*now=*/1000);  // waited 1000 > cap 512
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 0u);
}

TEST(SdramAwareFc, NoHistorySelectsOldest) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAware);
  std::vector<Packet> pkts;
  pkts.push_back(mk(0, 0, RW::kRead, 7));
  pkts.push_back(mk(1, 1, RW::kWrite, 2));
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(SdramAwarePfsFc, PriorityOverridesSdramRank) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAwarePfs);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);
  std::vector<Packet> pkts;
  pkts.push_back(mk(2, 10, RW::kRead, 0));  // perfect interleave
  pkts.push_back(
      mk(1, 12, RW::kWrite, 5, ServiceClass::kPriority));  // worst rank
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u) << "+PFS must serve the priority packet first";
}

TEST(SdramAwarePfsFc, SdramRankAmongBestEffort) {
  auto fc = make_flow_controller(FlowControlKind::kSdramAwarePfs);
  fc->on_scheduled(mk(1, 10, RW::kRead, 0), 0);
  std::vector<Packet> pkts;
  pkts.push_back(mk(1, 12, RW::kRead, 0));  // conflict
  pkts.push_back(mk(1, 10, RW::kRead, 9));  // row hit
  auto c = cands(pkts);
  auto p = pool(pkts);
  auto sel = fc->select(c, p, 10);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 1u);
}

TEST(Factory, MakesEveryKind) {
  for (auto kind :
       {FlowControlKind::kRoundRobin, FlowControlKind::kPriorityFirst,
        FlowControlKind::kSdramAware, FlowControlKind::kSdramAwarePfs,
        FlowControlKind::kGss, FlowControlKind::kGssSti}) {
    auto fc = make_flow_controller(kind);
    ASSERT_NE(fc, nullptr);
    EXPECT_EQ(fc->kind(), kind);
  }
}

/// Counts every event a controller emits.
class EventCount final : public obs::EventSink {
 public:
  void on_gss_admit(const obs::GssAdmitEvent&) override { ++n; }
  void on_gss_aging(const obs::GssAgingEvent&) override { ++n; }
  void on_gss_sti_hit(const obs::GssStiHitEvent&) override { ++n; }
  std::uint64_t n = 0;
};

class RepeatUntilContract
    : public ::testing::TestWithParam<FlowControlKind> {};

TEST_P(RepeatUntilContract, RepeatedSelectIsIdenticalAndSideEffectFree) {
  // Whatever horizon repeat_until() grants, select() re-run inside it on
  // the same candidates returns the same index, touches no token and
  // emits nothing — the premise of refused-round replay.
  GssParams gss;
  gss.timing = sdram::make_timing(sdram::DdrGeneration::kDdr3, 800.0);
  auto fc = make_flow_controller(GetParam(), gss);
  EventCount events;
  fc->attach_observer(&events, 0, 0);
  Rng rng(23);
  Cycle now = 600;
  std::size_t replayable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Packet> pkts(1 + rng.next_below(5));
    for (Packet& p : pkts) {
      p = mk(static_cast<BankId>(rng.next_below(3)),
             static_cast<RowId>(rng.next_below(3)),
             rng.chance(0.5) ? RW::kRead : RW::kWrite,
             now - rng.next_below(600),
             rng.chance(0.3) ? ServiceClass::kPriority
                             : ServiceClass::kBestEffort);
      p.gss_tokens = static_cast<std::uint32_t>(1 + rng.next_below(6));
      p.useful_beats = 8;
    }
    auto c = cands(pkts);
    auto w = pool(pkts);
    const auto first = fc->select(c, w, now);
    ASSERT_TRUE(first.has_value());
    const Cycle until = fc->repeat_until(now);
    ASSERT_GE(until, now);
    if (until > now + 1) ++replayable;
    std::vector<std::uint32_t> tokens;
    for (const Packet& p : pkts) tokens.push_back(p.gss_tokens);
    const std::uint64_t emitted = events.n;
    for (Cycle t = now + 1; t < until && t < now + 700; ++t) {
      const auto again = fc->select(c, w, t);
      ASSERT_EQ(again, first) << "trial " << trial << " cycle " << t;
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        ASSERT_EQ(pkts[i].gss_tokens, tokens[i]) << "trial " << trial;
      }
      ASSERT_EQ(events.n, emitted) << "trial " << trial;
    }
    fc->on_scheduled(pkts[*first], now);
    now += 1 + rng.next_below(40);
  }
  if (GetParam() == FlowControlKind::kRoundRobin) {
    EXPECT_EQ(replayable, 0u) << "round-robin rotates on every select";
  } else {
    EXPECT_GT(replayable, 0u) << "the contract should allow some replay";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RepeatUntilContract,
    ::testing::Values(FlowControlKind::kRoundRobin,
                      FlowControlKind::kPriorityFirst,
                      FlowControlKind::kSdramAware,
                      FlowControlKind::kSdramAwarePfs, FlowControlKind::kGss,
                      FlowControlKind::kGssSti),
    [](const auto& pinfo) {
      switch (pinfo.param) {
        case FlowControlKind::kRoundRobin: return "RoundRobin";
        case FlowControlKind::kPriorityFirst: return "PriorityFirst";
        case FlowControlKind::kSdramAware: return "SdramAware";
        case FlowControlKind::kSdramAwarePfs: return "SdramAwarePfs";
        case FlowControlKind::kGss: return "Gss";
        default: return "GssSti";
      }
    });

}  // namespace
}  // namespace annoc::noc
