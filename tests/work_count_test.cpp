/// Pinned deterministic work counts of the NoC arbitration layer.
///
/// Per-router arbitration rounds, downstream refusals and forwarded
/// packets, plus the `observe=counters` stall histogram, are part of the
/// simulator's observable contract: the benchmark reports them per layer
/// and the horizon audit fingerprints them. An optimisation of the
/// arbitration hot path (such as refused-round replay, DESIGN.md) must
/// leave every one of them unchanged, for the flow controllers it
/// accelerates and for those it leaves alone. The figures below were
/// recorded with the straightforward per-cycle arbitration (scan,
/// select, find_vc every cycle); a mismatch prints the new values in
/// pasteable form. The router counts must come out the same with no
/// stall listener attached, where the skipping schedulers put blocked
/// routers to sleep and count their replays lazily (DESIGN.md "Router
/// sleep"), and under the horizon audit, which checks every wake cycle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "core/simulator.hpp"
#include "fault/spec.hpp"
#include "metrics_identical.hpp"
#include "traffic/application.hpp"

namespace annoc::core {
namespace {

struct WorkCounts {
  std::uint64_t rounds = 0;
  std::uint64_t blocked = 0;
  std::uint64_t forwarded = 0;
  /// FNV-style fold of (rounds, blocked, forwarded) of every router in
  /// id order: catches a count moving between routers.
  std::uint64_t router_digest = 0;
  /// observe=counters stall histogram, indexed by obs::StallCause.
  std::array<std::uint64_t, obs::kNumStallCauses> stalls{};
  /// Same fold over every router's per-cause stall tallies.
  std::uint64_t stall_digest = 0;

  bool operator==(const WorkCounts&) const = default;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::string pasteable(const WorkCounts& w) {
  return "{" + std::to_string(w.rounds) + "u, " + std::to_string(w.blocked) +
         "u, " + std::to_string(w.forwarded) + "u, " +
         std::to_string(w.router_digest) + "ull, {" +
         std::to_string(w.stalls[0]) + "u, " + std::to_string(w.stalls[1]) +
         "u, " + std::to_string(w.stalls[2]) + "u}, " +
         std::to_string(w.stall_digest) + "ull}";
}

/// Run `cfg` with counters on; returns its work counts and Metrics.
/// With `counters` false the run is left unobserved and the stall
/// fields stay zero.
WorkCounts measure(SystemConfig cfg, Metrics* out = nullptr,
                   bool counters = true) {
  if (counters) cfg.observe = ObserveLevel::kCounters;
  Simulator sim(cfg);
  const Metrics m = sim.run();
  WorkCounts w;
  std::uint64_t h = 14695981039346656037ull;
  const noc::Network& net = sim.network();
  for (NodeId id = 0; id < net.num_routers(); ++id) {
    const noc::RouterStats& s = net.router(id).stats();
    w.rounds += s.arbitration_rounds;
    w.blocked += s.blocked_on_downstream;
    w.forwarded += s.packets_forwarded;
    h = mix(mix(mix(h, s.arbitration_rounds), s.blocked_on_downstream),
            s.packets_forwarded);
  }
  w.router_digest = h;
  if (out != nullptr) *out = m;
  if (!counters) return w;
  EXPECT_TRUE(m.obs_valid);
  std::uint64_t sh = 14695981039346656037ull;
  for (const obs::RouterCounters& rc : m.obs.routers) {
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c) {
      w.stalls[c] += rc.stalls[c];
      sh = mix(sh, rc.stalls[c]);
    }
  }
  w.stall_digest = sh;
  return w;
}

/// Saturated Blu-ray traffic on DDR2-266 with priority on: most
/// arbitration rounds end in a downstream refusal.
SystemConfig saturated(DesignPoint design) {
  SystemConfig cfg;
  cfg.design = design;
  cfg.app = traffic::AppId::kBluray;
  cfg.generation = sdram::DdrGeneration::kDdr2;
  cfg.clock_mhz = 266.0;
  cfg.priority_enabled = true;
  cfg.sim_cycles = 20000;
  cfg.warmup_cycles = 2000;
  cfg.seed = 7;
  return cfg;
}

void expect_pinned(const SystemConfig& cfg, const WorkCounts& pinned,
                   const std::string& tag) {
  Metrics plain;
  const WorkCounts got = measure(cfg, &plain);
  EXPECT_TRUE(got == pinned) << tag << ": work counts moved; now "
                             << pasteable(got);
  EXPECT_GT(got.blocked, got.rounds / 4)
      << tag << ": the point no longer saturates the fabric";
  // The counts are scheduler-independent: event mode runs arbitration
  // on exactly the cycles dense stepping does.
  SystemConfig ev = cfg;
  ev.sched = SchedMode::kEvent;
  Metrics evm;
  const WorkCounts got_ev = measure(ev, &evm);
  EXPECT_TRUE(got_ev == got) << tag << ": sched=event differs; "
                             << pasteable(got_ev);
  expect_metrics_identical(plain, evm, tag + "/event");

  // Unobserved: nothing listens for stalls, so under fast_forward and
  // event blocked routers sleep and their replays are counted lazily.
  // The router counts must not notice, and the audited run checks each
  // router's wake cycle every cycle on top.
  WorkCounts router_only = pinned;
  router_only.stalls = {};
  router_only.stall_digest = 0;
  const auto leg = [&](const SystemConfig& c, const std::string& name) {
    Metrics m;
    const WorkCounts w = measure(c, &m, /*counters=*/false);
    EXPECT_TRUE(w == router_only)
        << tag << "/" << name << ": router counts moved; now " << pasteable(w);
    expect_metrics_identical(plain, m, tag + "/" + name);
  };
  for (const SchedMode mode :
       {SchedMode::kDense, SchedMode::kFastForward, SchedMode::kEvent}) {
    SystemConfig c = cfg;
    c.observe = ObserveLevel::kOff;
    c.sched = mode;
    leg(c, std::string("observe=off/") + to_string(mode));
  }
  SystemConfig audited = cfg;
  audited.observe = ObserveLevel::kOff;
  audited.audit_horizons = true;
  leg(audited, "observe=off/audited");
}

TEST(WorkCounts, GssSagmOn4x4) {
  SystemConfig cfg = saturated(DesignPoint::kGssSagm);
  cfg.mesh_preset = "4x4";
  expect_pinned(cfg,
                {294813u, 268303u, 26510u, 13865089522290199583ull,
                 {0u, 262943u, 5360u}, 13895413356910676916ull},
                "gss+sagm/4x4");
}

TEST(WorkCounts, GssSagmStiOn4x4) {
  SystemConfig cfg = saturated(DesignPoint::kGssSagmSti);
  cfg.mesh_preset = "4x4";
  expect_pinned(cfg,
                {292301u, 265600u, 26701u, 9513472989193514111ull,
                 {0u, 260337u, 5263u}, 17865529240454821197ull},
                "gss+sagm+sti/4x4");
}

TEST(WorkCounts, ConvPfsTwoVcsDeepPipeline) {
  SystemConfig cfg = saturated(DesignPoint::kConvPfs);
  traffic::Application app = traffic::build_application(cfg.app);
  app.noc.pipeline_latency = 2;
  cfg.custom_app = app;
  cfg.num_vcs = 2;
  expect_pinned(cfg,
                {70401u, 62646u, 7755u, 12325411124892352443ull,
                 {0u, 53960u, 8686u}, 9519313906813011235ull},
                "conv+pfs/vc2/pipe2");
}

TEST(WorkCounts, Ref4Pfs) {
  SystemConfig cfg = saturated(DesignPoint::kRef4Pfs);
  cfg.mesh_preset = "4x4";
  expect_pinned(cfg,
                {295328u, 285711u, 9617u, 3355228943999480655ull,
                 {0u, 278039u, 7672u}, 111783524998429786ull},
                "ref4+pfs/4x4");
}

TEST(WorkCounts, GssSagmUnderNocFaults) {
  // Dead-link reroutes, a degraded link and a slow router on the same
  // saturated fabric: every path that changes routing or gates
  // arbitration mid-run.
  SystemConfig cfg = saturated(DesignPoint::kGssSagm);
  cfg.mesh_preset = "4x4";
  fault::FaultSpec dead;
  dead.kind = fault::FaultKind::kDeadLink;
  dead.at = 5000;
  dead.until = 9000;
  dead.a = 1;
  dead.b = 5;
  fault::FaultSpec degraded;
  degraded.kind = fault::FaultKind::kDegradedLink;
  degraded.at = 3000;
  degraded.until = 15000;
  degraded.a = 4;
  degraded.b = 5;
  fault::FaultSpec slow;
  slow.kind = fault::FaultKind::kSlowRouter;
  slow.at = 6000;
  slow.until = 12000;
  slow.router = 5;
  slow.period = 3;
  cfg.faults = {dead, degraded, slow};
  expect_pinned(cfg,
                {284922u, 259278u, 25644u, 1263698245162321513ull,
                 {0u, 254629u, 4649u}, 2429762210407577501ull},
                "gss+sagm/4x4/faults");
}

TEST(WorkCounts, UndrainedRunSettlesSleepingRouters) {
  // No drain: the run stops with the fabric saturated, routers asleep
  // on their memos and replays still uncounted. Simulator::run must
  // settle them, so every scheduler reports the dense counts.
  SystemConfig cfg = saturated(DesignPoint::kGssSagm);
  cfg.mesh_preset = "4x4";
  cfg.drain_cycle_limit = 0;
  const auto counts = [&](SchedMode mode, std::uint32_t* memos) {
    SystemConfig c = cfg;
    c.sched = mode;
    Simulator sim(c);
    (void)sim.run();
    std::uint64_t h = 14695981039346656037ull;
    *memos = 0;
    for (NodeId id = 0; id < sim.network().num_routers(); ++id) {
      const noc::Router& r = sim.network().router(id);
      h = mix(mix(mix(h, r.stats().arbitration_rounds),
                  r.stats().blocked_on_downstream),
              r.stats().packets_forwarded);
      *memos += r.num_refusal_memos();
    }
    return h;
  };
  std::uint32_t memos = 0;
  const std::uint64_t dense = counts(SchedMode::kDense, &memos);
  ASSERT_GT(memos, 0u) << "the run should end with refusals memoised";
  EXPECT_EQ(counts(SchedMode::kFastForward, &memos), dense);
  EXPECT_EQ(counts(SchedMode::kEvent, &memos), dense);
}

}  // namespace
}  // namespace annoc::core
