#include "core/simulator.hpp"

#include <algorithm>
#include <iostream>

#include "common/assert.hpp"
#include "memctrl/conv.hpp"
#include "memctrl/dpq.hpp"
#include "memctrl/streamlined.hpp"

namespace annoc::core {

namespace {

/// Cheap component-state fingerprints for the horizon audit
/// (SystemConfig::audit_horizons). They fold the externally observable
/// counters and occupancy of a component — enough to detect that a tick
/// changed visible state — while excluding internal bookkeeping that
/// legitimately mutates without constituting an observable event
/// (generator credit accrual, GSS token aging inside arbitration).
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  return h * 1099511628211ull + v;
}

/// `replays` adds that many arbitration rounds and blocked counts: the
/// fingerprint a router would have after replaying that many refusals.
[[nodiscard]] std::uint64_t fingerprint(const noc::Router& r,
                                        std::uint64_t replays = 0) {
  const noc::RouterStats& s = r.stats();
  std::uint64_t h = mix(0, s.packets_forwarded);
  h = mix(h, s.flits_forwarded);
  h = mix(h, s.arbitration_rounds + replays);
  h = mix(h, s.idle_grants);
  h = mix(h, s.blocked_on_downstream + replays);
  h = mix(h, r.buffered_packets());
  for (int p = 0; p < noc::kNumPorts; ++p) {
    const noc::Transfer& t = r.output(static_cast<noc::Port>(p));
    h = mix(h, t.active ? t.end : 0);
  }
  return h;
}

[[nodiscard]] std::uint64_t fingerprint(const memctrl::MemorySubsystem& sub) {
  std::uint64_t h = mix(0, sub.pending_requests());
  const memctrl::EngineStats& es = sub.engine_stats();
  h = mix(h, es.requests_completed);
  h = mix(h, es.cas_issued);
  h = mix(h, es.act_issued);
  h = mix(h, es.pre_issued);
  h = mix(h, es.stall_cycles);
  const sdram::DeviceStats& ds = sub.device().stats();
  h = mix(h, ds.activates);
  h = mix(h, ds.precharges);
  h = mix(h, ds.reads);
  h = mix(h, ds.writes);
  h = mix(h, ds.refreshes);
  h = mix(h, ds.total_beats);
  return h;
}

[[nodiscard]] std::uint64_t fingerprint(const ResponsePath& rp) {
  std::uint64_t h = mix(0, rp.backlog());
  const noc::NetworkStats& ns = rp.network().stats();
  h = mix(h, ns.injected_packets);
  h = mix(h, ns.ejected_packets);
  h = mix(h, rp.network().in_flight_packets());
  return h;
}

[[nodiscard]] std::uint64_t fingerprint(const traffic::TrafficSource& gen) {
  const traffic::GeneratorStats& s = gen.stats();
  std::uint64_t h = mix(0, s.requests_generated);
  h = mix(h, s.packets_injected);
  h = mix(h, s.inject_stalls);
  h = mix(h, gen.backlog());
  return h;
}

/// Deterministic controller placement when SystemConfig::mem_nodes is
/// empty: spread the C controllers evenly over the mesh perimeter
/// (clockwise from the (0,0) corner, so one controller reduces to the
/// classic memory-corner layout), or evenly over the node ids of an
/// irregular topology.
[[nodiscard]] std::vector<NodeId> default_mem_nodes(
    const noc::NocConfig& noc, std::uint32_t num_controllers) {
  std::vector<NodeId> ring;
  if (noc.topology) {
    ring.resize(noc.topology->num_nodes());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      ring[i] = static_cast<NodeId>(i);
    }
  } else {
    const std::uint32_t w = noc.width, h = noc.height;
    if (w == 1 || h == 1) {
      for (std::uint32_t i = 0; i < w * h; ++i) ring.push_back(i);
    } else {
      for (std::uint32_t x = 0; x < w; ++x) ring.push_back(x);
      for (std::uint32_t y = 1; y < h; ++y) ring.push_back(y * w + (w - 1));
      for (std::uint32_t x = w - 1; x-- > 0;) ring.push_back((h - 1) * w + x);
      for (std::uint32_t y = h - 1; y-- > 1;) ring.push_back(y * w);
    }
  }
  ANNOC_ASSERT_MSG(num_controllers <= ring.size(),
                   "more controllers than placeable nodes");
  std::vector<NodeId> mems;
  mems.reserve(num_controllers);
  for (std::uint32_t c = 0; c < num_controllers; ++c) {
    mems.push_back(
        ring[static_cast<std::size_t>(c) * ring.size() / num_controllers]);
  }
  return mems;
}

}  // namespace

Simulator::Simulator(const SystemConfig& cfg)
    : cfg_(cfg),
      app_(cfg.custom_app ? *cfg.custom_app
                          : traffic::build_application(cfg.app)) {
  sched_ = cfg_.resolved_sched();
  // --- mesh preset: re-tile the application onto a WxH mesh ---
  if (!cfg.mesh_preset.empty()) {
    std::uint32_t w = 0, h = 0;
    ANNOC_ASSERT_MSG(parse_mesh_preset(cfg.mesh_preset, &w, &h),
                     "mesh_preset must be \"WxH\" with 1 <= W,H <= 64");
    ANNOC_ASSERT_MSG(app_.noc.topology == nullptr,
                     "mesh_preset and a custom topology are exclusive");
    app_ = traffic::tile_application(app_, w, h);
  }
  // --- SDRAM device ---
  dev_cfg_.generation = cfg.generation;
  dev_cfg_.clock_mhz = cfg.clock_mhz;
  dev_cfg_.burst_mode = burst_mode(cfg.design, cfg.generation);
  dev_cfg_.geometry = sdram::default_geometry(cfg.generation);
  dev_cfg_.refresh_enabled = cfg.refresh;
  mapper_ = std::make_unique<sdram::AddressMapper>(
      dev_cfg_.geometry, sdram::MapPolicy::kChunkedBankInterleave,
      cfg.map_chunk_bytes != 0 ? cfg.map_chunk_bytes : 256u);

  // --- controllers and the address interleave ---
  const std::uint32_t num_ctrl = std::max<std::uint32_t>(1,
                                                         cfg.num_controllers);
  std::vector<NodeId> mems = cfg.mem_nodes;
  if (mems.empty()) {
    mems = num_ctrl == 1 ? std::vector<NodeId>{app_.noc.mem_node}
                         : default_mem_nodes(app_.noc, num_ctrl);
  }
  ANNOC_ASSERT_MSG(mems.size() == num_ctrl,
                   "mem_nodes must list exactly one node per controller");
  app_.noc.mem_nodes = mems;
  app_.noc.mem_node = mems[0];
  sdram::ChannelConfig ch;
  ch.channels = num_ctrl;
  ch.shift = cfg.interleave_shift
                 ? *cfg.interleave_shift
                 : sdram::default_interleave_shift(mapper_->boundary_unit());
  ch.mem_nodes = mems;
  memmap_ = std::make_unique<sdram::MemoryMap>(*mapper_, ch);

  // --- memory subsystems (one per controller; all share the device
  // geometry, per-controller engine knobs override the globals) ---
  for (std::uint32_t c = 0; c < num_ctrl; ++c) {
    sdram::DeviceConfig dc = dev_cfg_;
    dc.channel = c;
    const ControllerOverrides* ov =
        c < cfg.controller_overrides.size() ? &cfg.controller_overrides[c]
                                            : nullptr;
    const EngineKind ek = cfg.resolved_engine(c);
    if (ek == EngineKind::kDpq) {
      memctrl::DpqConfig qc;
      qc.n_requestors = static_cast<std::uint32_t>(app_.cores.size());
      // The mapper splits every request at the interleave boundary, so
      // this beat cap is exact, and with it the WCET bound.
      qc.max_beats = static_cast<std::uint32_t>(
          memmap_->boundary_unit() / dev_cfg_.geometry.bus_bytes);
      qc.promote_after = cfg.dpq_promote_after;
      auto dpq = std::make_unique<memctrl::DpqSubsystem>(dc, qc);
      dpq_subs_.push_back(dpq.get());
      subsystems_.push_back(std::move(dpq));
    } else if (ek == EngineKind::kConv) {
      memctrl::ConvConfig mc;
      mc.priority_first =
          cfg.design == DesignPoint::kConvPfs && cfg.priority_enabled;
      if (cfg.engine_window) mc.window_depth = *cfg.engine_window;
      if (cfg.engine_lookahead) mc.lookahead = *cfg.engine_lookahead;
      if (cfg.engine_reorder_depth) {
        mc.reorder_depth = *cfg.engine_reorder_depth;
      }
      if (ov) {
        if (ov->engine_window) mc.window_depth = *ov->engine_window;
        if (ov->engine_lookahead) mc.lookahead = *ov->engine_lookahead;
        if (ov->engine_reorder_depth) {
          mc.reorder_depth = *ov->engine_reorder_depth;
        }
      }
      subsystems_.push_back(std::make_unique<memctrl::ConvSubsystem>(dc, mc));
    } else {
      memctrl::StreamlinedConfig sc;
      if (uses_sagm(cfg.design)) {
        // SAGM entries are single subpackets (<= 4 beats), i.e. half the
        // time-horizon of a BL8 request; double the window so the bank
        // look-ahead covers the same number of cycles.
        sc.window_depth *= 2;
        sc.lookahead *= 2;
      }
      if (cfg.engine_window) sc.window_depth = *cfg.engine_window;
      if (cfg.engine_lookahead) sc.lookahead = *cfg.engine_lookahead;
      if (cfg.engine_reorder_depth) {
        sc.reorder_depth = *cfg.engine_reorder_depth;
      }
      if (ov) {
        if (ov->engine_window) sc.window_depth = *ov->engine_window;
        if (ov->engine_lookahead) sc.lookahead = *ov->engine_lookahead;
        if (ov->engine_reorder_depth) {
          sc.reorder_depth = *ov->engine_reorder_depth;
        }
      }
      subsystems_.push_back(
          std::make_unique<memctrl::StreamlinedSubsystem>(dc, sc));
    }
  }

  // --- network ---
  noc::GssParams gss;
  gss.pct = cfg.pct;
  gss.timing = sdram::make_timing(cfg.generation, cfg.clock_mhz);
  std::vector<noc::FlowControlKind> kinds;
  if (cfg.num_gss_routers) {
    // Fig. 8 mixed configuration: GSS routers nearest the memory,
    // priority-first (the paper's conventional baseline there) elsewhere.
    kinds = noc::Network::mixed_kinds(app_.noc, *cfg.num_gss_routers,
                                      router_kind(cfg.design),
                                      noc::FlowControlKind::kPriorityFirst);
  } else {
    kinds = {router_kind(cfg.design)};
  }
  if (cfg.adaptive_routing) {
    app_.noc.routing = noc::RoutingPolicy::kAdaptiveMinimal;
  }
  if (cfg.num_vcs > 1) app_.noc.num_vcs = cfg.num_vcs;
  network_ = std::make_unique<noc::Network>(app_.noc, std::move(kinds), gss);
  // Blocked routers sleep under the skipping schedulers; dense ticks
  // every router and stays the reference (DESIGN.md "Router sleep").
  network_->set_sleep(sched_ != SchedMode::kDense);
  node_channel_.assign(network_->num_routers(), kInvalidChannel);
  for (std::uint32_t c = 0; c < num_ctrl; ++c) {
    network_->attach_sink(mems[c], subsystems_[c].get());
    node_channel_[mems[c]] = c;
  }

  // --- fault schedule (src/fault/): resolved here, once the network's
  // canonical link list and the final controller placement exist; both
  // are pure functions of the scenario, so the schedule is too ---
  {
    fault::FabricInfo fi;
    fi.num_nodes = static_cast<std::uint32_t>(network_->num_routers());
    fi.links = network_->link_list();
    fi.mem_nodes = mems;
    fi.num_channels = num_ctrl;
    fi.num_banks = dev_cfg_.geometry.num_banks;
    fi.refresh_enabled = cfg.refresh;
    fi.nominal_trefi = gss.timing.trefi;
    fi.trfc = gss.timing.trfc;
    // Random SDRAM faults never land on a DPQ channel: its always-on
    // latency-bound oracle proves a WCET derived from nominal timing
    // (FabricInfo::sdram_fault_ok has the full rationale).
    fi.sdram_fault_ok.assign(num_ctrl, 1);
    for (std::uint32_t c = 0; c < num_ctrl; ++c) {
      if (cfg.resolved_engine(c) == EngineKind::kDpq) {
        fi.sdram_fault_ok[c] = 0;
      }
    }
    fault::RandomFaultParams rp;
    rp.seed = cfg.fault_seed;
    rp.count = cfg.fault_count;
    rp.kinds = cfg.fault_kinds;
    rp.start = cfg.fault_start;
    rp.spacing = cfg.fault_spacing;
    rp.duration = cfg.fault_duration;
    fault_schedule_ = fault::FaultSchedule::build(cfg.faults, rp, fi);
    nominal_trefi_ = gss.timing.trefi;
    if (!fault_schedule_.edges().empty()) {
      next_fault_edge_ = fault_schedule_.edges().front().at;
    }
  }

  if (!cfg.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(cfg.trace_path);
  }

  if (cfg.model_response_path) {
    response_path_ = std::make_unique<ResponsePath>(app_.noc);
    response_path_->set_on_delivered([this](noc::Packet&& pkt, Cycle now) {
      if (measuring_ && pkt.created >= measure_start_) {
        lat_resp_.add(now >= pkt.service_done ? now - pkt.service_done : 0);
      }
      finish_subpacket(pkt, now);
    });
  }

  // --- traffic sources ---
  const std::uint32_t split =
      uses_sagm(cfg.design)
          ? (cfg.split_beats != 0 ? cfg.split_beats
                                  : default_split_beats(cfg.generation))
          : 0u;
  // Shared by generators and replayers: register the parent request for
  // join tracking and announce it to the observers (the trace recorder
  // turns RequestEvents into replayable trace rows).
  const auto on_request = [this](const noc::Packet& parent,
                                 std::uint32_t num_subpackets) {
    ParentState ps;
    ps.subpackets_outstanding = num_subpackets;
    ps.created = parent.created;
    ps.kind = parent.kind;
    ps.svc = parent.svc;
    ps.core = parent.src_core;
    ps.useful_bytes = parent.useful_bytes;
    ps.forked = num_subpackets > 1;
    ANNOC_ASSERT_MSG(parents_.find(parent.id) == nullptr,
                     "duplicate parent id");
    parents_[parent.id] = ps;
    ANNOC_OBS_EMIT(obs_, on_request(obs::RequestEvent{
                             .at = parent.created,
                             .core = parent.src_core,
                             .addr = parent.byte_addr,
                             .rw = parent.rw,
                             .bytes = parent.useful_bytes,
                             .priority = parent.is_priority()}));
    if (ps.forked) {
      ANNOC_OBS_EMIT(obs_, on_fork(obs::ForkEvent{
                               .at = parent.created,
                               .parent_id = parent.id,
                               .core = parent.src_core,
                               .subpackets = num_subpackets,
                               .bytes = parent.useful_bytes}));
    }
  };
  // Replay mode: per-core slices of the trace, validated against the
  // application's core count (load/parse errors throw ParseError with
  // file and line — callers surface them, never abort()).
  std::vector<std::vector<traffic::TraceRecord>> slices;
  if (!cfg.replay_trace_path.empty()) {
    slices = traffic::slice_trace_by_core(
        traffic::load_trace(cfg.replay_trace_path), app_.cores.size(),
        cfg.replay_trace_path);
  }
  CoreId core_id = 0;
  for (const traffic::CorePlacement& cp : app_.cores) {
    if (!cfg.replay_trace_path.empty()) {
      traffic::ReplayConfig rc;
      rc.spec = cp.spec;
      rc.core_id = core_id;
      rc.node = cp.node;
      rc.mem_node = app_.noc.mem_node;
      rc.bus_bytes = dev_cfg_.geometry.bus_bytes;
      rc.split_beats = split;
      rc.on_request = on_request;
      generators_.push_back(std::make_unique<traffic::TraceReplayer>(
          rc, std::move(slices[core_id]), *memmap_, next_packet_id_,
          cfg.replay_trace_path));
    } else {
      traffic::GeneratorConfig gc;
      gc.spec = cp.spec;
      gc.core_id = core_id;
      gc.node = cp.node;
      gc.mem_node = app_.noc.mem_node;
      gc.bus_bytes = dev_cfg_.geometry.bus_bytes;
      gc.priority_demand = cfg.priority_enabled && cp.spec.is_mpu;
      gc.split_beats = split;
      gc.seed = cfg.seed;
      gc.on_request = on_request;
      generators_.push_back(std::make_unique<traffic::CoreGenerator>(
          gc, *memmap_, next_packet_id_));
    }
    core_names_.push_back(cp.spec.name);
    ++core_id;
  }
  core_requests_.assign(core_names_.size(), 0);
  core_latency_sum_.assign(core_names_.size(), 0.0);
  core_bytes_.assign(core_names_.size(), 0);

  // --- observability sinks (after every component exists) ---
  const bool counters_on =
      cfg.observe != ObserveLevel::kOff || !cfg.perfetto_path.empty();
  if (counters_on) {
    counter_sink_ = std::make_unique<obs::CounterSink>(
        network_->num_routers(), subsystems_.size());
    hub_.attach(counter_sink_.get());
  }
  if (!cfg.perfetto_path.empty()) {
    perfetto_sink_ = std::make_unique<obs::PerfettoSink>(
        cfg.perfetto_path, core_names_, cfg.observe == ObserveLevel::kFull);
    hub_.attach(perfetto_sink_.get());
  }
  if (trace_) hub_.attach(trace_.get());
  if (!cfg.record_trace_path.empty()) {
    // Trace recording consumes only the RequestEvents the generator
    // hook emits; the file is written by finish() at end of run.
    trace_recorder_ =
        std::make_unique<traffic::TraceRecorder>(cfg.record_trace_path);
    hub_.attach(trace_recorder_.get());
  }
#if ANNOC_CHECK_ENABLED
  if (cfg.check) {
    // Self-checkers attach after the user-facing sinks so a violating
    // event still reaches the trace/Perfetto export before the abort.
    // One oracle per controller: DDR constraints are per-channel, so
    // each oracle filters the shared hub stream to its own channel.
    for (std::uint32_t c = 0; c < num_ctrl; ++c) {
      sdram::DeviceConfig dc = dev_cfg_;
      dc.channel = c;
      oracles_.push_back(std::make_unique<check::TimingOracle>(dc));
      // Hand the oracle its channel's SDRAM fault timeline, so it
      // verifies the faulted constraints (tightened tREFI, inflated
      // tRCD/tRP) rather than flagging the fault as a violation.
      oracles_.back()->set_fault_timeline(fault_schedule_.timeline(c));
      hub_.attach(oracles_.back().get());
    }
    conservation_ = std::make_unique<check::ConservationChecker>();
    hub_.attach(conservation_.get());
  }
  // The DPQ latency-bound oracle is on whenever a controller runs the
  // DPQ engine — the bounded-latency claim is the engine's contract, so
  // it is checked by default rather than only under cfg.check.
  if (cfg.any_dpq_controller()) {
    latency_oracles_.resize(num_ctrl);
    for (std::uint32_t c = 0; c < num_ctrl; ++c) {
      if (cfg.resolved_engine(c) != EngineKind::kDpq) continue;
      sdram::DeviceConfig dc = dev_cfg_;
      dc.channel = c;
      latency_oracles_[c] = std::make_unique<check::LatencyBoundOracle>(
          dc, static_cast<std::uint32_t>(app_.cores.size()),
          static_cast<std::uint32_t>(memmap_->boundary_unit() /
                                     dev_cfg_.geometry.bus_bytes),
          cfg.dpq_promote_after);
      hub_.attach(latency_oracles_[c].get());
    }
  }
#endif
  if (hub_.num_sinks() > 0) obs_ = &hub_;
  if (counters_on || !oracles_.empty()) {
    // Device and router emission sites only matter to the counter and
    // Perfetto sinks and the checkers; with just the CSV trace attached,
    // leave them unobserved (the trace consumes only completion records).
    for (auto& sub : subsystems_) sub->device().set_observer(&hub_);
    for (memctrl::DpqSubsystem* d : dpq_subs_) d->set_arbiter_observer(&hub_);
    network_->set_observer(&hub_);
  }
}

void Simulator::attach_sink(obs::EventSink* sink) {
  hub_.attach(sink);
  obs_ = &hub_;
  for (auto& sub : subsystems_) sub->device().set_observer(&hub_);
  for (memctrl::DpqSubsystem* d : dpq_subs_) d->set_arbiter_observer(&hub_);
  network_->set_observer(&hub_);
}

memctrl::EngineStats Simulator::engine_stats() const {
  memctrl::EngineStats total = subsystems_[0]->engine_stats();
  for (std::size_t c = 1; c < subsystems_.size(); ++c) {
    const memctrl::EngineStats& es = subsystems_[c]->engine_stats();
    total.requests_completed += es.requests_completed;
    total.cas_issued += es.cas_issued;
    total.act_issued += es.act_issued;
    total.pre_issued += es.pre_issued;
    total.prep_acts += es.prep_acts;
    total.stall_cycles += es.stall_cycles;
    total.stall_need_act += es.stall_need_act;
    total.stall_need_pre += es.stall_need_pre;
    total.stall_cas_timing += es.stall_cas_timing;
  }
  return total;
}

sdram::DeviceStats Simulator::device_stats() const {
  sdram::DeviceStats total = subsystems_[0]->device().stats();
  for (std::size_t c = 1; c < subsystems_.size(); ++c) {
    const sdram::DeviceStats& ds = subsystems_[c]->device().stats();
    total.activates += ds.activates;
    total.precharges += ds.precharges;
    total.auto_precharges += ds.auto_precharges;
    total.reads += ds.reads;
    total.writes += ds.writes;
    total.refreshes += ds.refreshes;
    total.cas_row_hits += ds.cas_row_hits;
    total.total_beats += ds.total_beats;
    total.useful_beats += ds.useful_beats;
    total.bus_direction_turnarounds += ds.bus_direction_turnarounds;
    for (std::size_t b = 0; b < total.cas_per_bank.size(); ++b) {
      total.cas_per_bank[b] += ds.cas_per_bank[b];
    }
  }
  return total;
}

void Simulator::begin_measurement() {
  measuring_ = true;
  measure_start_ = now_;
  device_baseline_ = device_stats();
  engine_baseline_ = engine_stats();
  noc_flits_baseline_ = 0;
  noc_packets_baseline_ = 0;
  for (std::size_t i = 0; i < network_->num_routers(); ++i) {
    noc_flits_baseline_ +=
        network_->router(static_cast<NodeId>(i)).stats().flits_forwarded;
    noc_packets_baseline_ +=
        network_->router(static_cast<NodeId>(i)).stats().packets_forwarded;
  }
}

void Simulator::record_parent(const ParentState& ps) {
  // The paper's "memory latency": from the request being raised by the
  // core to the last useful data beat at the SDRAM. Backpressure into
  // the source queue counts — a congested design delays requests before
  // they even enter the mesh, and hiding that would flatter it.
  const Cycle latency =
      ps.last_done >= ps.created ? ps.last_done - ps.created : 0;
  // Only requests created inside the measurement window count.
  if (!measuring_ || ps.created < measure_start_) return;
  lat_all_.add(latency);
  if (ps.kind == RequestKind::kDemand) lat_demand_.add(latency);
  if (ps.svc == ServiceClass::kPriority) lat_priority_.add(latency);
  ++completed_requests_;
  core_bytes_[ps.core] += ps.useful_bytes;
  ++core_requests_[ps.core];
  core_latency_sum_[ps.core] += static_cast<double>(latency);
  // Pre/post-fault latency split (Metrics::fault): a request completing
  // at or after the first activation edge lands in the post bucket. The
  // !empty() gate keeps fault-free runs' FaultMetrics all-zero.
  if (!fault_schedule_.empty()) {
    if (fault_.first_activation != kNeverCycle &&
        ps.last_done >= fault_.first_activation) {
      ++fault_.post_fault_packets;
      fault_post_lat_sum_ += static_cast<double>(latency);
    } else {
      ++fault_.pre_fault_packets;
      fault_pre_lat_sum_ += static_cast<double>(latency);
    }
  }
}

void Simulator::on_subpacket_complete(const noc::Packet& pkt) {
  if (measuring_) {
    ++completed_subpackets_;
    if (pkt.created >= measure_start_) {
      lat_src_.add(pkt.injected - pkt.created);
      lat_net_.add(pkt.mem_arrival - pkt.injected);
      lat_mem_.add(pkt.service_done >= pkt.mem_arrival
                       ? pkt.service_done - pkt.mem_arrival
                       : 0);
      if (pkt.is_priority()) {
        lat_src_prio_.add(pkt.injected - pkt.created);
        lat_net_prio_.add(pkt.mem_arrival - pkt.injected);
        lat_mem_prio_.add(pkt.service_done >= pkt.mem_arrival
                              ? pkt.service_done - pkt.mem_arrival
                              : 0);
      }
    }
  }
  // With the response path modelled, a read is only finished once its
  // data lands back at the core.
  if (response_path_ && pkt.rw == RW::kRead) {
    response_path_->queue_response(pkt, now_);
    // The response path now has backlog to inject this very cycle; its
    // component id is higher than every possible caller's (subsystem),
    // so under the event scheduler it has not been popped yet.
    if (primed_) queue_.dirty(response_id(), now_);
    return;
  }
  finish_subpacket(pkt, pkt.service_done);
}

void Simulator::finish_subpacket(const noc::Packet& pkt, Cycle done) {
  ANNOC_OBS_EMIT(obs_, on_subpacket(to_record(
                           pkt, done, memmap_->channel_of(pkt.byte_addr))));
  ParentState* ps = parents_.find(pkt.parent_id);
  ANNOC_ASSERT_MSG(ps != nullptr, "completion for unknown parent");
  ANNOC_ASSERT(ps->subpackets_outstanding > 0);
  --ps->subpackets_outstanding;
  ps->last_done = std::max(ps->last_done, done);
  if (ps->subpackets_outstanding == 0) {
    if (ps->forked) {
      ANNOC_OBS_EMIT(obs_,
                     on_join(obs::JoinEvent{
                         .at = ps->last_done,
                         .parent_id = pkt.parent_id,
                         .core = ps->core,
                         .created = ps->created,
                         .priority = ps->svc == ServiceClass::kPriority}));
    }
    record_parent(*ps);
    generators_[ps->core]->on_parent_completed();
    // The freed request-window slot may unblock emission this cycle.
    // Generators carry the highest component ids, so under the event
    // scheduler this one has not been popped yet and ticks at now_ —
    // exactly when dense stepping would let it emit again.
    if (primed_) queue_.dirty(generator_id(ps->core), now_);
    parents_.erase(pkt.parent_id);
  }
}

void Simulator::end_measurement() {
  if (!measuring_ || measurement_ended_) return;
  measurement_ended_ = true;
  measure_end_ = now_;
  device_end_ = device_stats();
  engine_end_ = engine_stats();
  noc_flits_end_ = 0;
  noc_packets_end_ = 0;
  for (std::size_t i = 0; i < network_->num_routers(); ++i) {
    noc_flits_end_ +=
        network_->router(static_cast<NodeId>(i)).stats().flits_forwarded;
    noc_packets_end_ +=
        network_->router(static_cast<NodeId>(i)).stats().packets_forwarded;
  }
}

bool Simulator::apply_fault_edges() {
  if (next_fault_edge_ > now_) return false;
  const std::vector<fault::FaultEdge>& edges = fault_schedule_.edges();
  while (fault_cursor_ < edges.size() && edges[fault_cursor_].at <= now_) {
    const fault::FaultEdge& e = edges[fault_cursor_];
    const fault::FaultSpec& f = fault_schedule_.faults()[e.fault];
    switch (f.kind) {
      case fault::FaultKind::kDeadLink:
        network_->set_link_dead(f.a, f.b, e.activate);
        break;
      case fault::FaultKind::kDegradedLink:
        network_->set_link_penalty(f.a, f.b, e.activate ? f.penalty : 0);
        break;
      case fault::FaultKind::kSlowRouter:
        network_->set_router_slow(f.router, e.activate ? f.period : 0, e.at);
        break;
      case fault::FaultKind::kRefreshStorm:
        // The f.trefi == 0 guard mirrors the schedule's timeline build:
        // a degenerate storm is skipped identically on both sides, so
        // the oracle and the device always agree on the live tREFI.
        if (f.trefi != 0) {
          subsystems_[f.channel]->device().fault_apply_trefi(
              now_, e.activate ? f.trefi : nominal_trefi_);
        }
        break;
      case fault::FaultKind::kThrottledBanks:
        subsystems_[f.channel]->device().fault_set_bank_extra(
            f.bank_mask, e.activate ? f.extra_trcd : 0,
            e.activate ? f.extra_trp : 0);
        break;
    }
    if (e.activate) {
      switch (f.kind) {
        case fault::FaultKind::kDeadLink: ++fault_.dead_link_activations;
          break;
        case fault::FaultKind::kDegradedLink:
          ++fault_.degraded_link_activations;
          break;
        case fault::FaultKind::kSlowRouter: ++fault_.slow_router_activations;
          break;
        case fault::FaultKind::kRefreshStorm:
          ++fault_.refresh_storm_activations;
          break;
        case fault::FaultKind::kThrottledBanks:
          ++fault_.throttled_bank_activations;
          break;
      }
      if (fault_.first_activation == kNeverCycle) {
        fault_.first_activation = e.at;
        fault_first_beats_ = device_stats().useful_beats;
      }
    } else {
      ++fault_.deactivations;
    }
    ANNOC_OBS_EMIT(obs_,
                   on_fault(obs::FaultEvent{
                       .at = e.at,
                       .fault = e.fault,
                       .kind = static_cast<std::uint8_t>(f.kind),
                       .activate = e.activate}));
    ++fault_cursor_;
  }
  next_fault_edge_ = fault_cursor_ < edges.size() ? edges[fault_cursor_].at
                                                  : kNeverCycle;
  return true;
}

std::uint64_t Simulator::progress_token() const {
  std::uint64_t t = network_->progress_token();
  if (response_path_) t += response_path_->network().progress_token();
  for (const auto& sub : subsystems_) {
    t += sub->engine_stats().requests_completed;
  }
  return t;
}

void Simulator::check_watchdog() {
  if (cfg_.watchdog_cycles == 0) return;
  const std::uint64_t token = progress_token();
  // The token comparison (not "which cycle did work happen") is what
  // keeps the skipping schedulers honest: a skipped-over progress burst
  // still changes the token, so the first executed cycle afterwards
  // resets the timer instead of firing spuriously. The watchdog thus
  // fires within [N, 2N] cycles of a genuine stall, in every mode.
  if (token != watchdog_token_ || parents_.empty()) {
    watchdog_token_ = token;
    watchdog_progress_at_ = now_;
    return;
  }
  if (now_ - watchdog_progress_at_ < cfg_.watchdog_cycles) return;

  obs::WatchdogEvent ev;
  ev.at = now_;
  ev.last_progress_at = watchdog_progress_at_;
  ev.stalled_cycles = now_ - watchdog_progress_at_;
  ev.outstanding_parents = parents_.size();
  ev.in_flight_packets = network_->in_flight_packets();
  ANNOC_OBS_EMIT(obs_, on_watchdog(ev));

  std::cerr << "\n=== deadlock watchdog: no forward progress ===\n"
            << "cycle " << now_ << ": nothing has moved since cycle "
            << watchdog_progress_at_ << " (" << ev.stalled_cycles
            << " cycles) with " << parents_.size()
            << " parent request(s) outstanding\n";
  network_->dump_diagnostics(std::cerr, now_);
  for (std::size_t c = 0; c < subsystems_.size(); ++c) {
    std::cerr << "subsystem[" << c << "]: "
              << subsystems_[c]->pending_requests()
              << " pending request(s)\n";
  }
  std::uint64_t backlog = 0;
  for (const auto& gen : generators_) backlog += gen->backlog();
  std::cerr << "generator backlog: " << backlog << " request(s)\n";
  if (response_path_) {
    std::cerr << "response path: " << response_path_->backlog()
              << " queued, " << response_path_->network().in_flight_packets()
              << " in flight\n";
  }
  std::cerr.flush();
  ANNOC_ASSERT_MSG(false,
                   "deadlock/livelock watchdog fired (census above); raise "
                   "watchdog_cycles if the stall is expected, or see "
                   "docs/RESILIENCE.md \"Triaging a watchdog dump\"");
}

void Simulator::step() {
  if (!measuring_ && now_ >= cfg_.warmup_cycles) begin_measurement();
  if (measuring_ && !measurement_ended_ &&
      now_ >= cfg_.warmup_cycles + cfg_.sim_cycles) {
    end_measurement();
  }
  apply_fault_edges();
  check_watchdog();

  if (cfg_.audit_horizons) {
    step_audited();
    ++now_;
    return;
  }

  // 1. Memory subsystems in channel order: issue commands, retire
  //    requests. Each drains its completions right after its own tick —
  //    the same per-component order the event scheduler dispatches, and
  //    equivalent to tick-all-then-drain-all because no subsystem reads
  //    another's state.
  for (auto& sub : subsystems_) {
    sub->tick(now_);
    for (noc::Packet& done : sub->drain_completions()) {
      on_subpacket_complete(done);
    }
  }

  // 2. Network: free channels, arbitrate, move packets; then the
  //    response mesh (when modelled).
  network_->tick(now_);
  if (response_path_) response_path_->tick(now_);

  // 3. Cores: generate new requests (parents register via the
  //    on_request hook) and inject backlog into the mesh.
  for (auto& gen : generators_) {
    gen->tick(now_, *network_);
  }

  ++now_;
}

void Simulator::step_audited() {
  // Same cycle body as step(), but each component's tick is bracketed
  // by its own horizon and state fingerprint: a component whose visible
  // state changed at now_ after reporting next_event > now_ violated
  // the contract (the fast-forward and event schedulers would have let
  // it sleep through this cycle and silently diverge from dense).
  // Fingerprints are captured immediately before each component's own
  // tick, so mutations caused by earlier components this cycle (a
  // delivery landing in a router's buffer) are not misattributed.
  const auto check = [this](const char* what, std::size_t idx, Cycle h,
                            std::uint64_t fp0, std::uint64_t fp1) {
    if (fp0 == fp1 || h <= now_) return;
    std::fprintf(stderr,
                 "horizon audit: %s[%zu] changed state at cycle %llu but its "
                 "reported next_event horizon was %llu\n",
                 what, idx, static_cast<unsigned long long>(now_),
                 static_cast<unsigned long long>(h));
    ANNOC_ASSERT_MSG(false,
                     "next_event contract violation (see stderr); DESIGN.md "
                     "\"The next_event contract\" has the triage guide");
  };

  for (std::size_t c = 0; c < subsystems_.size(); ++c) {
    memctrl::MemorySubsystem& sub = *subsystems_[c];
    const Cycle h = sub.next_event(now_);
    const std::uint64_t fp0 = fingerprint(sub);
    sub.tick(now_);
    check("subsystem", c, h, fp0, fingerprint(sub));
    for (noc::Packet& done : sub.drain_completions()) {
      on_subpacket_complete(done);
    }
  }

  for (NodeId r = 0; r < network_->num_routers(); ++r) {
    const noc::Router& router = network_->router(r);
    const Cycle h = router.next_event(now_);
    const std::uint64_t fp0 = fingerprint(router);
    // Router sleep: before its wake cycle a router may only replay each
    // memoised refusal once — what a skipped tick counts lazily.
    const Cycle wake = network_->wake_of(r);
    const std::uint64_t asleep =
        fingerprint(router, router.num_refusal_memos());
    network_->tick_router(r, now_);
    const std::uint64_t fp1 = fingerprint(router);
    check("router", r, h, fp0, fp1);
    if (wake > now_ && fp1 != asleep) {
      std::fprintf(stderr,
                   "horizon audit: router[%u] changed state at cycle %llu "
                   "beyond replaying its %u refusal memo(s), but its wake "
                   "cycle was %llu\n",
                   static_cast<unsigned>(r),
                   static_cast<unsigned long long>(now_),
                   router.num_refusal_memos(),
                   static_cast<unsigned long long>(wake));
      ANNOC_ASSERT_MSG(false,
                       "router wake-cycle violation (see stderr); DESIGN.md "
                       "\"Router sleep\" lists the wake rules");
    }
  }

  if (response_path_) {
    const Cycle h = response_path_->next_event(now_);
    const std::uint64_t fp0 = fingerprint(*response_path_);
    response_path_->tick(now_);
    check("response_path", 0, h, fp0, fingerprint(*response_path_));
  }

  for (std::size_t c = 0; c < generators_.size(); ++c) {
    traffic::TrafficSource& gen = *generators_[c];
    const Cycle h = gen.next_event(now_);
    const std::uint64_t fp0 = fingerprint(gen);
    gen.tick(now_, *network_);
    check("generator", c, h, fp0, fingerprint(gen));
  }
}

void Simulator::fast_forward(Cycle limit) {
  if (sched_ != SchedMode::kFastForward) return;
  // Attempt backoff — the fix for fast-forward running SLOWER than
  // dense on saturated workloads: with the mesh saturated, every
  // attempt pays a full all-component horizon scan only to find some
  // component busy. After a fruitless attempt (advance <= 1 cycle),
  // skip the next `penalty` attempts, doubling the penalty up to 64;
  // any real jump resets it. Jumps are optional under the next_event
  // contract, so skipped attempts never change results — they only
  // delay the next jump by at most 64 dense cycles after an idle
  // pocket opens, while capping scan overhead at a vanishing fraction
  // of saturated-phase runtime.
  if (ff_backoff_ > 0) {
    --ff_backoff_;
    return;
  }
  const Cycle before = now_;
  try_fast_forward(limit);
  if (now_ >= before + 2) {
    ff_penalty_ = 0;
  } else {
    ff_penalty_ = ff_penalty_ == 0 ? 1 : std::min<Cycle>(ff_penalty_ * 2, 64);
    ff_backoff_ = ff_penalty_;
  }
}

void Simulator::try_fast_forward(Cycle limit) {
  // Horizons are lower bounds on the next state change; any component
  // with work this cycle returns now_ and vetoes the jump.
  Cycle h = kNeverCycle;
  for (const auto& sub : subsystems_) {
    h = std::min(h, sub->next_event(now_));
    if (h <= now_) return;
  }
  h = std::min(h, network_->next_event(now_));
  if (h <= now_) return;
  if (response_path_) {
    h = std::min(h, response_path_->next_event(now_));
    if (h <= now_) return;
  }
  for (const auto& gen : generators_) {
    h = std::min(h, gen->next_event(now_));
    if (h <= now_) return;
  }
  // Never jump over a phase boundary: begin/end_measurement must take
  // their stat snapshots on the exact cycle dense stepping would. The
  // same goes for fault edges (they mutate component state) and the
  // watchdog deadline (the stalled cycle must execute to be observed).
  Cycle cap = limit;
  if (now_ < cfg_.warmup_cycles) cap = std::min(cap, cfg_.warmup_cycles);
  const Cycle measure_end = cfg_.warmup_cycles + cfg_.sim_cycles;
  if (now_ < measure_end) cap = std::min(cap, measure_end);
  cap = std::min(cap, next_fault_edge_);
  if (cfg_.watchdog_cycles > 0) {
    cap = std::min(cap, watchdog_progress_at_ + cfg_.watchdog_cycles);
  }
  if (cap <= now_) return;  // a clamp already passed (stale watchdog
                            // sample) — stay dense until it re-samples
  now_ = std::min(h, cap);  // h == kNeverCycle jumps straight to cap
}

void Simulator::prime_event_queue() {
  queue_.reset(num_components());
  // Arm everything at the current cycle rather than at each component's
  // horizon: several components cannot report a meaningful horizon
  // before their first tick (a CoreGenerator has no accrual history yet
  // and would answer kNeverCycle — nothing would ever run).
  const auto n = static_cast<EventQueue::ComponentId>(num_components());
  for (EventQueue::ComponentId id = 0; id < n; ++id) {
    if (!response_path_ && id == response_id()) continue;
    queue_.schedule(id, now_);
  }
  network_->set_waker(this);
  primed_ = true;
}

void Simulator::dispatch(EventQueue::ComponentId id) {
  const auto num_subs =
      static_cast<EventQueue::ComponentId>(subsystems_.size());
  if (id < num_subs) {
    memctrl::MemorySubsystem& sub = *subsystems_[id];
    sub.tick(now_);
    for (noc::Packet& done : sub.drain_completions()) {
      on_subpacket_complete(done);
    }
    return;
  }
  if (id < response_id()) {
    network_->tick_router(static_cast<NodeId>(id - num_subs), now_);
    return;
  }
  if (id == response_id()) {
    ANNOC_ASSERT(response_path_ != nullptr);
    response_path_->tick(now_);
    return;
  }
  generators_[id - response_id() - 1]->tick(now_, *network_);
}

Cycle Simulator::horizon_of(EventQueue::ComponentId id, Cycle now) const {
  Cycle h = kNeverCycle;
  const auto num_subs =
      static_cast<EventQueue::ComponentId>(subsystems_.size());
  if (id < num_subs) {
    h = subsystems_[id]->next_event(now);
  } else if (id < response_id()) {
    h = network_->router(static_cast<NodeId>(id - num_subs)).next_event(now);
  } else if (id == response_id()) {
    h = response_path_->next_event(now);
  } else {
    h = generators_[id - response_id() - 1]->next_event(now);
  }
  // Horizons are >= now by contract; clamping keeps a buggy component
  // from wedging the loop in the past (pop_due still asserts on clock
  // skips, and the audit mode pins down the offender).
  return h == kNeverCycle ? h : std::max(h, now);
}

void Simulator::wake_router(NodeId router, Cycle at) {
  queue_.dirty(router_id(router), at);
}

void Simulator::wake_memory(NodeId mem_node, Cycle at) {
  ANNOC_ASSERT(mem_node < node_channel_.size() &&
               node_channel_[mem_node] != kInvalidChannel);
  queue_.dirty(subsystem_id(node_channel_[mem_node]), at);
}

void Simulator::step_event() {
  if (burst_remaining_ > 0) {
    // Saturation fallback (see kBurstStreak): plain dense cycles, heap
    // untouched (wakers may still lower stale deadlines — harmless,
    // the re-prime below rebuilds the heap from scratch). Dense cycles
    // are trivially identical to dense stepping, and re-priming arms
    // every component at now_ exactly like the initial prime, so the
    // event loop resumes on a correct schedule.
    --burst_remaining_;
    step();
    ++queue_.counters().executed_cycles;
    if (burst_remaining_ == 0) prime_event_queue();
    return;
  }

  if (!measuring_ && now_ >= cfg_.warmup_cycles) begin_measurement();
  if (measuring_ && !measurement_ended_ &&
      now_ >= cfg_.warmup_cycles + cfg_.sim_cycles) {
    end_measurement();
  }
  // A fault edge mutates component state out from under sleeping
  // horizons (a reroute makes parked packets eligible, slow-router
  // gating changes a router's cadence), so re-arm everything at now_ —
  // the pops below then sweep every component in dense id order,
  // exactly like the cycle a dense run executes here.
  if (apply_fault_edges() && primed_) prime_event_queue();
  check_watchdog();

  // Every due deadline equals now_ exactly (advance_event never
  // overshoots one), so pops come out in ascending component id — the
  // dense tick order. Components dirtied at now_ by an earlier pop
  // (completions waking the response path or a generator) enter the
  // heap behind the popper's id and are served in the same sweep.
  while (queue_.has_due(now_)) {
    const EventQueue::ComponentId id = queue_.pop_due(now_);
    dispatch(id);
    // A waker may have re-armed `id` mid-dispatch (e.g. a generator's
    // injection waking the source router that already ran this cycle);
    // keep the earlier of that deadline and the component's own horizon.
    queue_.schedule(
        id, std::min(queue_.deadline_of(id), horizon_of(id, now_ + 1)));
  }
  ++queue_.counters().executed_cycles;
  ++now_;
}

void Simulator::advance_event(Cycle limit) {
  if (burst_remaining_ > 0) return;  // mid-burst: dense, no jumps
  // Never jump over a phase boundary: begin/end_measurement must take
  // their stat snapshots on the exact cycle dense stepping would. Fault
  // edges and the watchdog deadline clamp for the same reason as in
  // try_fast_forward.
  Cycle cap = limit;
  if (now_ < cfg_.warmup_cycles) cap = std::min(cap, cfg_.warmup_cycles);
  const Cycle measure_end = cfg_.warmup_cycles + cfg_.sim_cycles;
  if (now_ < measure_end) cap = std::min(cap, measure_end);
  cap = std::min(cap, next_fault_edge_);
  if (cfg_.watchdog_cycles > 0) {
    cap = std::min(cap, watchdog_progress_at_ + cfg_.watchdog_cycles);
  }
  const Cycle target = std::min(queue_.next_deadline(), cap);
  if (target > now_) {
    queue_.counters().skipped_cycles += target - now_;
    now_ = target;
    dense_streak_ = 0;
    burst_len_ = kBurstMin;
  } else if (++dense_streak_ >= kBurstStreak) {
    // Saturated: every recent cycle had due work. Drop to dense bursts
    // and grow them while saturation persists, so heap overhead decays
    // to nothing and event-mode throughput converges to dense.
    dense_streak_ = 0;
    burst_remaining_ = burst_len_;
    burst_len_ = std::min(burst_len_ * 2, kBurstMax);
  }
}

void Simulator::drain() {
  end_measurement();
  // Stop request generation; already-queued backlog still injects and
  // in-flight packets still progress, so parents created inside the
  // window complete and reach record_parent instead of being dropped.
  for (auto& gen : generators_) gen->set_emitting(false);
  const Cycle limit = cfg_.drain_cycle_limit;
  const Cycle drain_end = now_ + limit;
  if (sched_ == SchedMode::kEvent && primed_) {
    // Event-driven drain: same exit conditions as the dense loop below,
    // so the final now_ (and thus drained_cycles_) matches it exactly.
    const Cycle drain_start = now_;
    while (!parents_.empty() && now_ < drain_end) {
      step_event();
      if (parents_.empty() || now_ >= drain_end) break;
      advance_event(drain_end);
    }
    drained_cycles_ += now_ - drain_start;
    return;
  }
  while (!parents_.empty() && now_ < drain_end) {
    step();
    ++drained_cycles_;
    // Only jump while requests remain outstanding: dense stepping stops
    // the moment the last parent completes, and the final now_ (and the
    // drained-cycle count) must match it exactly.
    if (parents_.empty() || now_ >= drain_end) break;
    const Cycle before = now_;
    fast_forward(drain_end);
    drained_cycles_ += now_ - before;
  }
}

Metrics Simulator::run() {
  const Cycle total = cfg_.warmup_cycles + cfg_.sim_cycles;
  if (sched_ == SchedMode::kEvent) {
    if (!primed_) prime_event_queue();
    while (now_ < total) {
      step_event();
      if (now_ < total) advance_event(total);
    }
  } else {
    while (now_ < total) {
      step();
      if (now_ < total) fast_forward(total);
    }
  }
  drain();
  // Routers asleep at the end still owe their skipped replays.
  network_->settle();
  // One finish() for every sink: the counter sink closes open bank
  // intervals, the Perfetto exporter closes its JSON, the CSV trace
  // flushes.
  if (obs_ != nullptr) obs_->finish(now_);
  enforce_checks();
  return metrics();
}

void Simulator::enforce_checks() {
#if ANNOC_CHECK_ENABLED
  if (conservation_) {
    check::ConservationChecker::EndState s;
    s.at = now_;
    s.fully_drained = parents_.empty();
    s.outstanding_parents = parents_.size();
    s.request_net = network_->stats();
    s.request_in_flight = conservation_->audit_network(*network_, now_);
    for (const auto& sub : subsystems_) {
      const std::uint64_t pending = sub->pending_requests();
      s.subsystem_pending += pending;
      s.per_controller_pending.push_back(pending);
    }
    for (const auto& gen : generators_) s.generator_backlog += gen->backlog();
    if (response_path_) {
      s.response_backlog = response_path_->backlog();
      s.response_in_flight = response_path_->network().in_flight_packets();
    }
    conservation_->on_run_end(s);
  }
  bool oracle_bad = false;
  for (std::size_t c = 0; c < oracles_.size(); ++c) {
    if (oracles_[c]->ok()) continue;
    oracle_bad = true;
    std::fprintf(
        stderr, "TimingOracle[channel %zu]: %llu violation(s)\n%s", c,
        static_cast<unsigned long long>(oracles_[c]->log().total()),
        oracles_[c]->log().report().c_str());
  }
  for (std::size_t c = 0; c < latency_oracles_.size(); ++c) {
    const check::LatencyBoundOracle* o = latency_oracles_[c].get();
    if (o == nullptr || o->ok()) continue;
    oracle_bad = true;
    std::fprintf(
        stderr, "LatencyBoundOracle[channel %zu]: %llu violation(s)\n%s", c,
        static_cast<unsigned long long>(o->log().total()),
        o->log().report().c_str());
  }
  const bool conservation_bad = conservation_ && !conservation_->ok();
  if (conservation_bad) {
    std::fprintf(
        stderr, "ConservationChecker: %llu violation(s)\n%s",
        static_cast<unsigned long long>(conservation_->log().total()),
        conservation_->log().report().c_str());
  }
  ANNOC_ASSERT_MSG(!oracle_bad && !conservation_bad,
                   "self-check violation (report above); see DESIGN.md "
                   "\"Validation\" for triage");
#endif
}

Metrics Simulator::metrics() const {
  Metrics m;
  const Cycle window_end = measurement_ended_ ? measure_end_ : now_;
  m.measured_cycles =
      window_end > measure_start_ ? window_end - measure_start_ : 0;
  m.drained_cycles = drained_cycles_;
  m.outstanding_requests = parents_.size();
  m.all_packets = lat_all_;
  m.demand_packets = lat_demand_;
  m.priority_packets = lat_priority_;
  m.source_queue = lat_src_;
  m.network = lat_net_;
  m.memory = lat_mem_;
  m.source_queue_prio = lat_src_prio_;
  m.network_prio = lat_net_prio_;
  m.memory_prio = lat_mem_prio_;
  m.response_path = lat_resp_;
  m.completed_requests = completed_requests_;
  m.completed_subpackets = completed_subpackets_;

  const sdram::DeviceStats ds =
      measurement_ended_ ? device_end_ : device_stats();
  auto sub = [](std::uint64_t a, std::uint64_t b) { return a - b; };
  m.device.activates = sub(ds.activates, device_baseline_.activates);
  m.device.precharges = sub(ds.precharges, device_baseline_.precharges);
  m.device.auto_precharges =
      sub(ds.auto_precharges, device_baseline_.auto_precharges);
  m.device.reads = sub(ds.reads, device_baseline_.reads);
  m.device.writes = sub(ds.writes, device_baseline_.writes);
  m.device.refreshes = sub(ds.refreshes, device_baseline_.refreshes);
  m.device.cas_row_hits = sub(ds.cas_row_hits, device_baseline_.cas_row_hits);
  m.device.total_beats = sub(ds.total_beats, device_baseline_.total_beats);
  m.device.useful_beats =
      sub(ds.useful_beats, device_baseline_.useful_beats);
  m.device.bus_direction_turnarounds =
      sub(ds.bus_direction_turnarounds,
          device_baseline_.bus_direction_turnarounds);
  for (std::size_t b = 0; b < ds.cas_per_bank.size(); ++b) {
    m.device.cas_per_bank[b] =
        sub(ds.cas_per_bank[b], device_baseline_.cas_per_bank[b]);
  }

  if (m.measured_cycles > 0) {
    // Aggregate bus utilization: each controller contributes 2 beats
    // per cycle of data-bus capacity. One controller multiplies the
    // denominator by exactly 1.0, so single-controller results stay
    // bitwise identical to the pre-multi-controller simulator.
    const double capacity = 2.0 * static_cast<double>(m.measured_cycles) *
                            static_cast<double>(subsystems_.size());
    m.utilization = static_cast<double>(m.device.useful_beats) / capacity;
    m.raw_utilization = static_cast<double>(m.device.total_beats) / capacity;
  }

  const memctrl::EngineStats es =
      measurement_ended_ ? engine_end_ : engine_stats();
  m.engine.requests_completed =
      sub(es.requests_completed, engine_baseline_.requests_completed);
  m.engine.cas_issued = sub(es.cas_issued, engine_baseline_.cas_issued);
  m.engine.act_issued = sub(es.act_issued, engine_baseline_.act_issued);
  m.engine.pre_issued = sub(es.pre_issued, engine_baseline_.pre_issued);
  m.engine.prep_acts = sub(es.prep_acts, engine_baseline_.prep_acts);
  m.engine.stall_cycles = sub(es.stall_cycles, engine_baseline_.stall_cycles);
  m.engine.stall_need_act =
      sub(es.stall_need_act, engine_baseline_.stall_need_act);
  m.engine.stall_need_pre =
      sub(es.stall_need_pre, engine_baseline_.stall_need_pre);
  m.engine.stall_cas_timing =
      sub(es.stall_cas_timing, engine_baseline_.stall_cas_timing);

  std::uint64_t flits = 0, pkts = 0;
  if (measurement_ended_) {
    flits = noc_flits_end_;
    pkts = noc_packets_end_;
  } else {
    for (std::size_t i = 0; i < network_->num_routers(); ++i) {
      flits +=
          network_->router(static_cast<NodeId>(i)).stats().flits_forwarded;
      pkts +=
          network_->router(static_cast<NodeId>(i)).stats().packets_forwarded;
    }
  }
  m.noc_flits_forwarded = flits - noc_flits_baseline_;
  m.noc_packets_forwarded = pkts - noc_packets_baseline_;

  m.fault = fault_;
  if (m.fault.pre_fault_packets > 0) {
    m.fault.pre_fault_avg_latency =
        fault_pre_lat_sum_ / static_cast<double>(m.fault.pre_fault_packets);
  }
  if (m.fault.post_fault_packets > 0) {
    m.fault.post_fault_avg_latency =
        fault_post_lat_sum_ / static_cast<double>(m.fault.post_fault_packets);
  }
  if (fault_.first_activation != kNeverCycle && m.measured_cycles > 0) {
    // Utilization split at the first activation edge: useful beats up to
    // the snapshot taken when that edge applied vs. the rest, each over
    // its own slice of the measurement window.
    const Cycle split = std::clamp(fault_.first_activation, measure_start_,
                                   window_end);
    std::uint64_t pre_beats = 0;
    if (fault_.first_activation >= window_end) {
      pre_beats = m.device.useful_beats;
    } else if (fault_.first_activation > measure_start_) {
      pre_beats = fault_first_beats_ - device_baseline_.useful_beats;
    }
    const Cycle pre_cycles = split - measure_start_;
    const Cycle post_cycles = window_end - split;
    const double per_cycle = 2.0 * static_cast<double>(subsystems_.size());
    if (pre_cycles > 0) {
      m.fault.pre_fault_utilization =
          static_cast<double>(pre_beats) /
          (per_cycle * static_cast<double>(pre_cycles));
    }
    if (post_cycles > 0) {
      m.fault.post_fault_utilization =
          static_cast<double>(m.device.useful_beats - pre_beats) /
          (per_cycle * static_cast<double>(post_cycles));
    }
  }

  if (counter_sink_) {
    m.obs_valid = true;
    m.obs = counter_sink_->counters();
  }
  if (trace_) m.trace_dropped_rows = trace_->dropped_rows();

  // Resolve core names only here, off the hot path. Cores sharing a
  // name merge (sum, then divide — the latency sums are exact integer
  // sums, so the merge order does not perturb the result); the achieved
  // rate is then assigned per core in CoreId order, as before.
  for (CoreId c = 0; c < core_names_.size(); ++c) {
    if (core_requests_[c] == 0) continue;
    CoreMetrics& cm = m.per_core[core_names_[c]];
    cm.name = core_names_[c];
    cm.requests += core_requests_[c];
    cm.avg_latency += core_latency_sum_[c];
  }
  for (auto& [name, cm] : m.per_core) {
    if (cm.requests > 0) {
      cm.avg_latency /= static_cast<double>(cm.requests);
    }
  }
  for (CoreId c = 0; c < core_names_.size(); ++c) {
    if (core_requests_[c] == 0) continue;
    auto pit = m.per_core.find(core_names_[c]);
    if (pit != m.per_core.end() && m.measured_cycles > 0) {
      pit->second.achieved_bytes_per_cycle =
          static_cast<double>(core_bytes_[c]) /
          static_cast<double>(m.measured_cycles);
    }
  }
  return m;
}

Metrics run_simulation(const SystemConfig& cfg) {
  Simulator sim(cfg);
  return sim.run();
}

}  // namespace annoc::core
