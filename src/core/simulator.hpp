/// \file simulator.hpp
/// Top-level cycle-driven simulation: wires an application's traffic
/// generators, the mesh network with the design point's flow
/// controllers, and the design point's memory subsystem around a DDR
/// device; runs for the configured number of cycles and aggregates the
/// paper's metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "check/conservation.hpp"
#include "check/latency_bound.hpp"
#include "check/timing_oracle.hpp"
#include "common/assert.hpp"
#include "common/flat_map.hpp"
#include "core/event_queue.hpp"
#include "core/metrics.hpp"
#include "core/response_path.hpp"
#include "core/system_config.hpp"
#include "core/trace.hpp"
#include "fault/schedule.hpp"
#include "memctrl/dpq.hpp"
#include "memctrl/subsystem.hpp"
#include "noc/network.hpp"
#include "obs/counters.hpp"
#include "obs/perfetto.hpp"
#include "obs/sink.hpp"
#include "sdram/address.hpp"
#include "sdram/interleave.hpp"
#include "traffic/application.hpp"
#include "traffic/generator.hpp"
#include "traffic/source.hpp"
#include "traffic/trace_replay.hpp"

namespace annoc::core {

/// Top-level simulation driver. Implements noc::NetworkWaker so packet
/// handoffs inside the request mesh can dirty sleeping components when
/// the event-driven scheduler is active (SystemConfig::sched = event).
class Simulator : private noc::NetworkWaker {
 public:
  explicit Simulator(const SystemConfig& cfg);

  /// Run to completion — warmup, measurement window, then a bounded
  /// drain (see SystemConfig::drain_cycle_limit) — and return the
  /// metrics of the measurement window (warmup excluded).
  Metrics run();

  /// Step a single cycle (exposed for integration tests). Under
  /// fast_forward and event, a sleeping router's replays reach its
  /// RouterStats only when it next ticks: call network().settle()
  /// before reading them mid-run (run() does so at its end).
  void step();

  /// Fast-forward: if every component reports its next event strictly
  /// after `now()`, jump the clock to the earliest such cycle, clamped
  /// to `limit` and to the warmup/measurement boundaries (those cycles
  /// must execute densely so the stat snapshots land exactly where
  /// dense stepping puts them). No-op unless the run resolved to
  /// SchedMode::kFastForward, when a backoff window is active (see the
  /// implementation), or when any component still has work this cycle.
  void fast_forward(Cycle limit);

  /// Close the measurement window (if still open) and simulate up to
  /// cfg.drain_cycle_limit further cycles with request generation
  /// stopped, so requests created inside the window can complete and be
  /// counted. Called by run(); exposed for step()-driven users.
  void drain();

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  [[nodiscard]] noc::Network& network() { return *network_; }
  /// The first (or only) memory subsystem — the single-controller view
  /// most tests and examples use.
  [[nodiscard]] memctrl::MemorySubsystem& subsystem() {
    return *subsystems_[0];
  }
  /// Controller `c`'s subsystem (c < num_controllers()).
  [[nodiscard]] memctrl::MemorySubsystem& subsystem(std::size_t c) {
    ANNOC_ASSERT(c < subsystems_.size());
    return *subsystems_[c];
  }
  [[nodiscard]] std::size_t num_controllers() const {
    return subsystems_.size();
  }
  /// The address interleave: byte address -> (controller, device
  /// location). Pass-through of the device mapper when
  /// num_controllers() == 1.
  [[nodiscard]] const sdram::MemoryMap& memory_map() const {
    return *memmap_;
  }
  [[nodiscard]] const traffic::Application& application() const {
    return app_;
  }

  /// Snapshot metrics accumulated so far (measurement window only).
  [[nodiscard]] Metrics metrics() const;

  /// The scheduler mode this run resolved to (SystemConfig::sched, or
  /// the legacy fast_forward bool when unset).
  [[nodiscard]] SchedMode sched() const { return sched_; }

  /// Event-scheduler behaviour counters (wakeups, re-keys, executed vs
  /// skipped cycles). All zero unless sched() == SchedMode::kEvent.
  /// Deliberately not part of Metrics — see obs::SchedCounters.
  [[nodiscard]] const obs::SchedCounters& sched_counters() const {
    return queue_.counters();
  }

  /// Attach an additional observer to the run (tests use this to record
  /// or re-check the event stream). Must be called before run()/step();
  /// forces the device and router emission sites on.
  void attach_sink(obs::EventSink* sink);

  /// The self-checkers, when SystemConfig::check is set and the layer is
  /// compiled in; nullptr otherwise. There is one TimingOracle per
  /// controller; the no-argument form returns channel 0's (the
  /// single-controller view).
  [[nodiscard]] const check::TimingOracle* timing_oracle() const {
    return oracles_.empty() ? nullptr : oracles_[0].get();
  }
  [[nodiscard]] const check::TimingOracle* timing_oracle(
      std::size_t c) const {
    return c < oracles_.size() ? oracles_[c].get() : nullptr;
  }
  [[nodiscard]] const check::ConservationChecker* conservation() const {
    return conservation_.get();
  }
  /// The DPQ latency-bound oracle of controller `c`; nullptr when that
  /// controller does not run the DPQ engine (or the check layer is
  /// compiled out). The no-argument form returns the first DPQ
  /// channel's — the single-controller view.
  [[nodiscard]] const check::LatencyBoundOracle* latency_oracle(
      std::size_t c) const {
    return c < latency_oracles_.size() ? latency_oracles_[c].get() : nullptr;
  }
  [[nodiscard]] const check::LatencyBoundOracle* latency_oracle() const {
    for (const auto& o : latency_oracles_) {
      if (o) return o.get();
    }
    return nullptr;
  }

  /// The resolved fault schedule of this run (explicit scenario faults
  /// plus deterministically drawn random ones). Empty when the scenario
  /// declares no faults.
  [[nodiscard]] const fault::FaultSchedule& fault_schedule() const {
    return fault_schedule_;
  }

 private:
  struct ParentState {
    std::uint32_t subpackets_outstanding = 0;
    Cycle created = 0;
    Cycle last_done = 0;
    RequestKind kind = RequestKind::kStream;
    ServiceClass svc = ServiceClass::kBestEffort;
    CoreId core = kInvalidCore;
    std::uint32_t useful_bytes = 0;
    /// True when the request actually forked (>1 subpackets): pairs the
    /// observability JoinEvent with its ForkEvent. Packet::is_split is
    /// broader — the splitter tags every request it touches, including
    /// ones that fit in a single subpacket.
    bool forked = false;
  };

  // --- event-driven scheduler core (SystemConfig::sched = event) ---
  //
  // Component ids in dense tick rank: the memory subsystems first (by
  // channel), then the request routers by node id, the response path,
  // and finally the traffic sources by core id. Due components pop from
  // the heap in (deadline, id) order, so within one cycle they execute
  // in exactly the dense sequence — the keystone of bitwise Metrics
  // identity.
  [[nodiscard]] EventQueue::ComponentId subsystem_id(std::size_t c) const {
    return static_cast<EventQueue::ComponentId>(c);
  }
  [[nodiscard]] EventQueue::ComponentId router_id(NodeId r) const {
    return static_cast<EventQueue::ComponentId>(subsystems_.size() + r);
  }
  [[nodiscard]] EventQueue::ComponentId response_id() const {
    return static_cast<EventQueue::ComponentId>(subsystems_.size() +
                                                network_->num_routers());
  }
  [[nodiscard]] EventQueue::ComponentId generator_id(CoreId c) const {
    return response_id() + 1 + c;
  }
  [[nodiscard]] std::size_t num_components() const {
    return subsystems_.size() + 1 + network_->num_routers() +
           generators_.size();
  }
  /// Arm every component at the current cycle and attach the network
  /// waker. Priming at `now_` (not at each component's horizon) matters:
  /// several components cannot report a meaningful horizon before their
  /// first tick (a CoreGenerator starts with no accrual history).
  void prime_event_queue();
  /// Execute one cycle: run every due component in (deadline, id) order,
  /// reschedule each from its own horizon, then advance the clock by 1.
  void step_event();
  /// Jump the clock to the earliest pending deadline, clamped to `limit`
  /// and the warmup/measurement boundaries (those cycles must execute so
  /// the stat snapshots land exactly where dense stepping puts them).
  void advance_event(Cycle limit);
  /// Tick one component (the event-loop dispatch).
  void dispatch(EventQueue::ComponentId id);
  /// The component's own next_event horizon, clamped to >= `now`.
  [[nodiscard]] Cycle horizon_of(EventQueue::ComponentId id,
                                 Cycle now) const;
  // NetworkWaker: packet handoffs dirty the receiving component (the
  // mem node identifies which controller's subsystem to wake).
  void wake_router(NodeId router, Cycle at) override;
  void wake_memory(NodeId mem_node, Cycle at) override;
  /// The horizon-audited dense cycle body (SystemConfig::audit_horizons):
  /// wraps each component's tick in a state fingerprint and aborts when
  /// a component acted at `now_` after reporting a horizon beyond it.
  void step_audited();
  /// The actual fast-forward scan + jump; fast_forward() adds backoff.
  void try_fast_forward(Cycle limit);

  /// Apply every fault-schedule edge with `at <= now_` to the live
  /// components (network link/router state, device timing). Returns true
  /// when at least one edge was applied — the event loop re-primes then,
  /// because an edge invalidates sleeping horizons (rerouted packets
  /// become eligible, slow-router gating changes). Fault edges are
  /// executed-cycle work: try_fast_forward and advance_event clamp their
  /// jumps to next_fault_edge_ so no mode can skip one.
  bool apply_fault_edges();
  /// Forward-progress sum over everything that can move work: request
  /// mesh (injections + hops + ejections), response mesh, and per-channel
  /// completed requests. Strictly monotone while the system is live; flat
  /// across a cycle means nothing moved.
  [[nodiscard]] std::uint64_t progress_token() const;
  /// The deadlock/livelock watchdog (SystemConfig::watchdog_cycles): on
  /// every executed cycle, compare progress_token() against the last
  /// sample; with outstanding work and no progress for watchdog_cycles,
  /// emit a WatchdogEvent, dump a census (stderr) and abort. A pure
  /// observer otherwise — a run that never deadlocks is bitwise
  /// identical with the watchdog on or off.
  void check_watchdog();
  void on_subpacket_complete(const noc::Packet& pkt);
  /// Final bookkeeping once a subpacket is truly done at `done` (its
  /// SDRAM service, or — with the response path — data delivery).
  void finish_subpacket(const noc::Packet& pkt, Cycle done);
  void record_parent(const ParentState& ps);
  /// Feed the end-of-run snapshot to the ConservationChecker and abort
  /// with a full report if either checker saw a violation.
  void enforce_checks();
  void begin_measurement();
  /// Freeze the measurement counters at the window edge: later cycles
  /// (the drain phase) may still complete in-window requests but must
  /// not inflate utilization or activity counters.
  void end_measurement();

  SystemConfig cfg_;
  traffic::Application app_;
  sdram::DeviceConfig dev_cfg_;
  std::unique_ptr<sdram::AddressMapper> mapper_;
  /// Byte address -> (controller, device location); wraps mapper_.
  std::unique_ptr<sdram::MemoryMap> memmap_;
  /// One memory subsystem per controller, index == channel. Ticked in
  /// channel order (each drains its completions immediately after its
  /// own tick, matching the event scheduler's per-component dispatch).
  std::vector<std::unique_ptr<memctrl::MemorySubsystem>> subsystems_;
  /// The subset of subsystems_ running the DPQ engine (non-owning), so
  /// observer attachment can reach set_arbiter_observer without a cast.
  std::vector<memctrl::DpqSubsystem*> dpq_subs_;
  /// NoC node -> channel (kInvalidChannel off the mem nodes).
  std::vector<std::uint32_t> node_channel_;
  static constexpr std::uint32_t kInvalidChannel = 0xffffffffu;
  std::unique_ptr<noc::Network> network_;
  std::unique_ptr<ResponsePath> response_path_;
  std::unique_ptr<TraceWriter> trace_;
  // Observability: the hub fans events out to whichever sinks the config
  // enables (CSV trace, counters, Perfetto). obs_ is &hub_ when at least
  // one sink is attached, nullptr otherwise — the simulator's own
  // emission sites (fork/join/subpacket) go through it.
  obs::EventHub hub_;
  std::unique_ptr<obs::CounterSink> counter_sink_;
  std::unique_ptr<obs::PerfettoSink> perfetto_sink_;
  // Self-checking layer (SystemConfig::check): pure observers on the
  // same hub; enforce_checks() turns their findings into an abort at end
  // of run. Empty/null when disabled (or compiled out). One oracle per
  // controller — all-global DDR constraints hold per channel.
  std::vector<std::unique_ptr<check::TimingOracle>> oracles_;
  /// One latency-bound oracle per controller, nullptr on channels not
  /// running the DPQ engine. Attached whenever DPQ is selected — the
  /// bounded-latency claim is checked by default, independent of
  /// SystemConfig::check (but compiled out with the layer).
  std::vector<std::unique_ptr<check::LatencyBoundOracle>> latency_oracles_;
  std::unique_ptr<check::ConservationChecker> conservation_;
  obs::EventSink* obs_ = nullptr;
  // Trace recording (SystemConfig::record_trace_path): one more sink on
  // the hub, fed by the RequestEvent the generator hook emits.
  std::unique_ptr<traffic::TraceRecorder> trace_recorder_;
  // One traffic source per core: CoreGenerators normally, TraceReplayers
  // when SystemConfig::replay_trace_path is set.
  std::vector<std::unique_ptr<traffic::TrafficSource>> generators_;
  PacketId next_packet_id_ = 1;

  // Fault injection (src/fault/): the resolved schedule, a cursor over
  // its edge list, and the accumulators behind Metrics::fault. The
  // next-edge cycle doubles as a jump clamp in both skipping schedulers.
  fault::FaultSchedule fault_schedule_;
  std::size_t fault_cursor_ = 0;
  Cycle next_fault_edge_ = kNeverCycle;
  std::uint64_t nominal_trefi_ = 0;  ///< restore value for refresh storms
  FaultMetrics fault_;
  double fault_pre_lat_sum_ = 0.0;
  double fault_post_lat_sum_ = 0.0;
  /// device_stats().useful_beats snapshot at the first activation — the
  /// split point for the pre/post-fault utilization metrics.
  std::uint64_t fault_first_beats_ = 0;
  // Watchdog state: last sampled progress token and the cycle it last
  // changed (or the system last had no outstanding work).
  std::uint64_t watchdog_token_ = 0;
  Cycle watchdog_progress_at_ = 0;

  Cycle now_ = 0;
  SchedMode sched_ = SchedMode::kDense;
  EventQueue queue_;
  bool primed_ = false;
  /// Saturation fallback: after `kBurstStreak` consecutive executed
  /// cycles with no skippable gap, the event loop stops paying heap
  /// overhead and runs plain dense cycles for a burst (exponentially
  /// grown up to kBurstMax), then re-primes the heap. This is how the
  /// event scheduler subsumes dense stepping as its degenerate case:
  /// on fully saturated traffic it converges to dense-loop cost instead
  /// of losing to per-component pop/reschedule churn.
  static constexpr Cycle kBurstStreak = 32;
  static constexpr Cycle kBurstMin = 4096;
  static constexpr Cycle kBurstMax = 65536;
  Cycle burst_remaining_ = 0;
  Cycle dense_streak_ = 0;
  Cycle burst_len_ = kBurstMin;
  /// Fast-forward attempt backoff (see fast_forward()): remaining
  /// attempts to skip, and the current penalty (doubles on consecutive
  /// fruitless attempts, resets on a real jump).
  Cycle ff_backoff_ = 0;
  Cycle ff_penalty_ = 0;
  bool measuring_ = false;
  Cycle measure_start_ = 0;
  bool measurement_ended_ = false;
  Cycle measure_end_ = 0;
  Cycle drained_cycles_ = 0;

  // Parent-request completion tracking (SAGM splits one request into
  // several subpackets; latency is measured on the whole request). A
  // FlatMap: every request used to cost a std::map node allocation.
  FlatMap<PacketId, ParentState> parents_;

  // Measurement accumulators.
  LatencyStat lat_all_, lat_demand_, lat_priority_;
  LatencyStat lat_src_, lat_net_, lat_mem_;
  LatencyStat lat_net_prio_, lat_mem_prio_, lat_src_prio_;
  LatencyStat lat_resp_;
  std::uint64_t completed_requests_ = 0;
  std::uint64_t completed_subpackets_ = 0;
  // Per-core accumulators, indexed by CoreId (the completion hot path
  // used to hash strings into maps); names are resolved — and same-name
  // cores merged — only when metrics() exports.
  std::vector<std::string> core_names_;
  std::vector<std::uint64_t> core_requests_;
  std::vector<double> core_latency_sum_;
  std::vector<std::uint64_t> core_bytes_;
  sdram::DeviceStats device_baseline_{};
  memctrl::EngineStats engine_baseline_{};
  std::uint64_t noc_flits_baseline_ = 0;
  std::uint64_t noc_packets_baseline_ = 0;
  // Snapshots at the window edge (valid once measurement_ended_).
  sdram::DeviceStats device_end_{};
  memctrl::EngineStats engine_end_{};
  std::uint64_t noc_flits_end_ = 0;
  std::uint64_t noc_packets_end_ = 0;

  /// Aggregates over all controllers (field-wise sums). With one
  /// controller these reduce to that subsystem's own stats.
  [[nodiscard]] memctrl::EngineStats engine_stats() const;
  [[nodiscard]] sdram::DeviceStats device_stats() const;
};

/// Convenience: build, run, return metrics.
[[nodiscard]] Metrics run_simulation(const SystemConfig& cfg);

}  // namespace annoc::core
