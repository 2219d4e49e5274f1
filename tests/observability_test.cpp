/// The observability layer's core guarantee: it OBSERVES, it never
/// steers. Every reported metric must be bit-identical whether the
/// event sinks are attached or not — across design points, and whether
/// the level is counters-only or full Perfetto export.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "check/conservation.hpp"
#include "check/latency_bound.hpp"
#include "check/timing_oracle.hpp"
#include "core/simulator.hpp"
#include "metrics_identical.hpp"

namespace annoc::core {
namespace {

Metrics run_with(DesignPoint design, ObserveLevel level,
                 const std::string& perfetto_path) {
  SystemConfig cfg;
  cfg.design = design;
  cfg.app = traffic::AppId::kBluray;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 266.0;
  cfg.priority_enabled = true;
  cfg.sim_cycles = 6000;
  cfg.warmup_cycles = 1000;
  cfg.observe = level;
  cfg.perfetto_path = perfetto_path;
  Simulator sim(cfg);
  return sim.run();
}

void expect_stat_eq(const LatencyStat& a, const LatencyStat& b,
                    const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;  // bit-identical, not approximate
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

void expect_metrics_identical(const Metrics& off, const Metrics& on) {
  EXPECT_EQ(off.utilization, on.utilization);
  EXPECT_EQ(off.raw_utilization, on.raw_utilization);
  expect_stat_eq(off.all_packets, on.all_packets, "all_packets");
  expect_stat_eq(off.demand_packets, on.demand_packets, "demand_packets");
  expect_stat_eq(off.priority_packets, on.priority_packets,
                 "priority_packets");
  expect_stat_eq(off.source_queue, on.source_queue, "source_queue");
  expect_stat_eq(off.network, on.network, "network");
  expect_stat_eq(off.memory, on.memory, "memory");
  EXPECT_EQ(off.completed_requests, on.completed_requests);
  EXPECT_EQ(off.completed_subpackets, on.completed_subpackets);
  EXPECT_EQ(off.outstanding_requests, on.outstanding_requests);
  EXPECT_EQ(off.measured_cycles, on.measured_cycles);
  EXPECT_EQ(off.drained_cycles, on.drained_cycles);
  EXPECT_EQ(off.device.activates, on.device.activates);
  EXPECT_EQ(off.device.precharges, on.device.precharges);
  EXPECT_EQ(off.device.auto_precharges, on.device.auto_precharges);
  EXPECT_EQ(off.device.reads, on.device.reads);
  EXPECT_EQ(off.device.writes, on.device.writes);
  EXPECT_EQ(off.device.cas_row_hits, on.device.cas_row_hits);
  EXPECT_EQ(off.device.total_beats, on.device.total_beats);
  EXPECT_EQ(off.device.useful_beats, on.device.useful_beats);
  EXPECT_EQ(off.engine.cas_issued, on.engine.cas_issued);
  EXPECT_EQ(off.engine.act_issued, on.engine.act_issued);
  EXPECT_EQ(off.engine.pre_issued, on.engine.pre_issued);
  EXPECT_EQ(off.engine.stall_cycles, on.engine.stall_cycles);
  EXPECT_EQ(off.noc_flits_forwarded, on.noc_flits_forwarded);
  EXPECT_EQ(off.noc_packets_forwarded, on.noc_packets_forwarded);
  ASSERT_EQ(off.per_core.size(), on.per_core.size());
  for (const auto& [name, cm] : off.per_core) {
    const auto it = on.per_core.find(name);
    ASSERT_NE(it, on.per_core.end()) << name;
    EXPECT_EQ(cm.requests, it->second.requests) << name;
    EXPECT_EQ(cm.avg_latency, it->second.avg_latency) << name;
    EXPECT_EQ(cm.achieved_bytes_per_cycle,
              it->second.achieved_bytes_per_cycle)
        << name;
  }
}

class ObserveBitIdentity : public ::testing::TestWithParam<DesignPoint> {};

TEST_P(ObserveBitIdentity, CountersLevelDoesNotPerturbMetrics) {
  const Metrics off = run_with(GetParam(), ObserveLevel::kOff, "");
  const Metrics on = run_with(GetParam(), ObserveLevel::kCounters, "");
  EXPECT_FALSE(off.obs_valid);
  EXPECT_TRUE(on.obs_valid);
  expect_metrics_identical(off, on);
}

TEST_P(ObserveBitIdentity, FullPerfettoExportDoesNotPerturbMetrics) {
  const std::string path = ::testing::TempDir() + "/annoc_obs_identity.json";
  const Metrics off = run_with(GetParam(), ObserveLevel::kOff, "");
  const Metrics on = run_with(GetParam(), ObserveLevel::kFull, path);
  EXPECT_TRUE(on.obs_valid);
  expect_metrics_identical(off, on);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Designs, ObserveBitIdentity,
                         ::testing::Values(DesignPoint::kConv,
                                           DesignPoint::kGss,
                                           DesignPoint::kGssSagm,
                                           DesignPoint::kGssSagmSti),
                         [](const auto& pinfo) {
                           switch (pinfo.param) {
                             case DesignPoint::kConv: return "Conv";
                             case DesignPoint::kGss: return "Gss";
                             case DesignPoint::kGssSagm: return "GssSagm";
                             default: return "GssSagmSti";
                           }
                         });

TEST(ObserveCounters, WholeRunTalliesCoverTheMeasurementWindow) {
  const Metrics m = run_with(DesignPoint::kGssSagm, ObserveLevel::kCounters,
                             "");
  ASSERT_TRUE(m.obs_valid);
  // Counters span warmup + window + drain, so each whole-run tally must
  // be at least the corresponding window-only device stat.
  EXPECT_GE(m.obs.row_hits_total(), m.device.cas_row_hits);
  EXPECT_GE(m.obs.ap_elided_total(), m.device.auto_precharges);
  EXPECT_GE(m.obs.sdram_commands,
            m.device.activates + m.device.precharges + m.device.reads +
                m.device.writes);
  // SAGM splits requests, so forks/joins happen and pair up.
  EXPECT_GT(m.obs.forks, 0u);
  EXPECT_EQ(m.obs.forks, m.obs.joins);
  // Subpacket waits bound the parent latency stats seen in the window.
  EXPECT_GE(static_cast<double>(m.obs.worst_wait), m.all_packets.max());
}

// --- hub subscriptions ----------------------------------------------------

using obs::EventKind;

/// Counts every event it receives, by kind; `mask` is its interests().
class KindCounter final : public obs::EventSink {
 public:
  explicit KindCounter(std::uint32_t mask = obs::kAllEventKinds)
      : mask_(mask) {}
  std::uint32_t interests() const override { return mask_; }
  void on_command(const obs::SdramCommandEvent&) override {
    bump(EventKind::kCommand);
  }
  void on_arbitration(const obs::ArbitrationEvent&) override {
    bump(EventKind::kArbitration);
  }
  void on_stall(const obs::StallEvent&) override { bump(EventKind::kStall); }
  void on_gss_admit(const obs::GssAdmitEvent&) override {
    bump(EventKind::kGssAdmit);
  }
  void on_gss_aging(const obs::GssAgingEvent&) override {
    bump(EventKind::kGssAging);
  }
  void on_gss_sti_hit(const obs::GssStiHitEvent&) override {
    bump(EventKind::kGssStiHit);
  }
  void on_request(const obs::RequestEvent&) override {
    bump(EventKind::kRequest);
  }
  void on_fork(const obs::ForkEvent&) override { bump(EventKind::kFork); }
  void on_join(const obs::JoinEvent&) override { bump(EventKind::kJoin); }
  void on_subpacket(const obs::SubpacketRecord&) override {
    bump(EventKind::kSubpacket);
  }
  void on_dpq_grant(const obs::DpqGrantEvent&) override {
    bump(EventKind::kDpqGrant);
  }
  void on_dpq_retire(const obs::DpqRetireEvent&) override {
    bump(EventKind::kDpqRetire);
  }
  void on_fault(const obs::FaultEvent&) override { bump(EventKind::kFault); }
  void on_watchdog(const obs::WatchdogEvent&) override {
    bump(EventKind::kWatchdog);
  }
  void finish(Cycle) override { ++finished; }

  std::array<std::uint64_t, obs::kNumEventKinds> seen{};
  std::uint64_t finished = 0;

 private:
  void bump(EventKind k) { ++seen[static_cast<std::size_t>(k)]; }
  std::uint32_t mask_;
};

/// One event of every kind through `hub`, then finish().
void emit_one_of_each(obs::EventHub& hub) {
  hub.on_command({});
  hub.on_arbitration({});
  hub.on_stall({});
  hub.on_gss_admit({});
  hub.on_gss_aging({});
  hub.on_gss_sti_hit({});
  hub.on_request({});
  hub.on_fork({});
  hub.on_join({});
  hub.on_subpacket({});
  hub.on_dpq_grant({});
  hub.on_dpq_retire({});
  hub.on_fault({});
  hub.on_watchdog({});
  hub.finish(0);
}

TEST(HubSubscription, SinksReceiveOnlyTheirDeclaredKinds) {
  const std::uint32_t narrow = obs::event_bit(EventKind::kStall) |
                               obs::event_bit(EventKind::kSubpacket);
  KindCounter picky(narrow);
  KindCounter all;  // default interests: every kind
  obs::EventHub hub;
  hub.attach(&picky);
  hub.attach(&all);
  emit_one_of_each(hub);
  for (std::size_t k = 0; k < obs::kNumEventKinds; ++k) {
    EXPECT_EQ(picky.seen[k], (narrow >> k) & 1u) << "kind " << k;
    EXPECT_EQ(all.seen[k], 1u) << "kind " << k;
  }
  // finish() reaches every sink, interested or not.
  EXPECT_EQ(picky.finished, 1u);
  EXPECT_EQ(all.finished, 1u);
}

TEST(HubSubscription, HubInterestsAreTheUnionOfItsSinks) {
  obs::EventHub hub;
  EXPECT_EQ(hub.interests(), 0u);
  EXPECT_EQ(obs::wants(&hub, EventKind::kStall), nullptr);
  KindCounter stalls(obs::event_bit(EventKind::kStall));
  KindCounter commands(obs::event_bit(EventKind::kCommand));
  hub.attach(&stalls);
  hub.attach(&commands);
  EXPECT_EQ(hub.interests(), obs::event_bit(EventKind::kStall) |
                                 obs::event_bit(EventKind::kCommand));
  EXPECT_EQ(obs::wants(&hub, EventKind::kStall), &hub);
  EXPECT_EQ(obs::wants(&hub, EventKind::kGssAging), nullptr);
  EXPECT_EQ(obs::wants(nullptr, EventKind::kStall), nullptr);
}

TEST(HubSubscription, CheckersSubscribeExactlyToTheKindsTheyCheck) {
  sdram::DeviceConfig dc;
  dc.geometry = sdram::default_geometry(dc.generation);
  check::TimingOracle oracle(dc);
  check::ConservationChecker conservation;
  check::LatencyBoundOracle bound(dc, 4, 8);
  const auto bits = [](std::initializer_list<EventKind> ks) {
    std::uint32_t m = 0;
    for (const EventKind k : ks) m |= obs::event_bit(k);
    return m;
  };
  // Each mask names exactly the handlers the checker overrides.
  EXPECT_EQ(oracle.interests(), bits({EventKind::kCommand}));
  EXPECT_EQ(conservation.interests(),
            bits({EventKind::kFork, EventKind::kJoin, EventKind::kSubpacket,
                  EventKind::kArbitration}));
  EXPECT_EQ(bound.interests(), bits({EventKind::kSubpacket}));

  // The default checked run's hot kinds reach none of them.
  obs::EventHub hub;
  hub.attach(&oracle);
  hub.attach(&conservation);
  hub.attach(&bound);
  EXPECT_EQ(hub.num_sinks(), 3u);
  for (const EventKind k : {EventKind::kStall, EventKind::kGssAdmit,
                            EventKind::kGssAging, EventKind::kGssStiHit}) {
    EXPECT_EQ(hub.num_sinks(k), 0u) << static_cast<int>(k);
  }
  EXPECT_EQ(hub.num_sinks(EventKind::kCommand), 1u);
  EXPECT_EQ(hub.num_sinks(EventKind::kSubpacket), 2u);
}

/// Saturated 4x4 GSS+SAGM point, checks on: refused rounds are replayed
/// and the hub's per-kind lists are in play.
SystemConfig saturated_4x4() {
  SystemConfig cfg;
  cfg.design = DesignPoint::kGssSagm;
  cfg.app = traffic::AppId::kBluray;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 266.0;
  cfg.priority_enabled = true;
  cfg.mesh_preset = "4x4";
  cfg.sim_cycles = 6000;
  cfg.warmup_cycles = 1000;
  return cfg;
}

TEST(HubSubscription, DefaultInterestUserSinkSeesEveryEventBesideTheCheckers) {
  // A user sink with default interests, attached next to the checkers,
  // receives the full stream: the stalls it counts match the counter
  // sink's tallies of an observe=counters run.
  SystemConfig cfg = saturated_4x4();
  KindCounter user;
  Simulator sim(cfg);
  sim.attach_sink(&user);
  const Metrics plain = sim.run();
  SystemConfig counted = cfg;
  counted.observe = ObserveLevel::kCounters;
  const Metrics with_counters = Simulator(counted).run();
  ASSERT_TRUE(with_counters.obs_valid);
  EXPECT_EQ(user.seen[static_cast<std::size_t>(EventKind::kStall)],
            with_counters.obs.router_stalls_total());
  EXPECT_GT(user.seen[static_cast<std::size_t>(EventKind::kStall)], 0u);
  EXPECT_GT(user.seen[static_cast<std::size_t>(EventKind::kGssAdmit)], 0u);
  EXPECT_GT(user.seen[static_cast<std::size_t>(EventKind::kCommand)], 0u);
  EXPECT_EQ(user.finished, 1u);
  expect_metrics_identical(plain, with_counters, "user sink vs counters");
}

/// Tallies stall events per router; takes nothing else.
class StallsPerRouter final : public obs::EventSink {
 public:
  std::uint32_t interests() const override {
    return obs::event_bit(EventKind::kStall);
  }
  void on_stall(const obs::StallEvent& e) override {
    if (e.router >= per_router.size()) per_router.resize(e.router + 1);
    ++per_router[e.router];
  }
  std::vector<std::uint64_t> per_router;
};

TEST(HubSubscription, StallSinkAttachedAfterConstructionSeesEveryStall) {
  // Routers cache which kinds the hub's sinks take when the observer is
  // set. A stall-only sink attached after construction must refresh
  // that cache: it sees every stall, and blocked routers stop sleeping
  // through stalls it would miss (DESIGN.md "Router sleep").
  SystemConfig counted = saturated_4x4();
  counted.observe = ObserveLevel::kCounters;
  counted.sched = SchedMode::kDense;
  const Metrics reference = Simulator(counted).run();
  ASSERT_TRUE(reference.obs_valid);
  const Metrics off = Simulator(saturated_4x4()).run();
  for (const SchedMode mode :
       {SchedMode::kDense, SchedMode::kFastForward, SchedMode::kEvent}) {
    SystemConfig cfg = saturated_4x4();
    cfg.sched = mode;
    Simulator sim(cfg);
    StallsPerRouter sink;
    sim.attach_sink(&sink);
    const Metrics m = sim.run();
    sink.per_router.resize(reference.obs.routers.size());
    for (std::size_t r = 0; r < reference.obs.routers.size(); ++r) {
      EXPECT_EQ(sink.per_router[r], reference.obs.routers[r].total_stalls())
          << to_string(mode) << ", router " << r;
    }
    expect_metrics_identical(off, m, std::string("stall sink, ") +
                                         to_string(mode));
  }
}

TEST(HubSubscription, MetricsIdenticalWithCountersAndWithPerfetto) {
  const SystemConfig cfg = saturated_4x4();
  const Metrics off = Simulator(cfg).run();
  SystemConfig counters = cfg;
  counters.observe = ObserveLevel::kCounters;
  expect_metrics_identical(off, Simulator(counters).run(), "counters");
  SystemConfig perfetto = cfg;
  perfetto.observe = ObserveLevel::kFull;
  perfetto.perfetto_path = ::testing::TempDir() + "/annoc_hub_identity.json";
  expect_metrics_identical(off, Simulator(perfetto).run(), "perfetto");
  std::remove(perfetto.perfetto_path.c_str());
}

}  // namespace
}  // namespace annoc::core
