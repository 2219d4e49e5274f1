/// \file network.hpp
/// The request fabric: a 2-D mesh with XY routing (Fig. 7) or a
/// file-defined irregular topology (topology.hpp), with one or more
/// memory subsystems hanging off dedicated router ports.
///
/// XY routing is deterministic and minimal, hence deadlock- and
/// livelock-free (Section IV-A); topology mode substitutes BFS
/// shortest-path next-hop tables with deterministic tie-breaks (each
/// hop strictly decreases the distance, so routes stay live). All
/// request traffic is memory-bound — toward whichever controller the
/// address interleave selects. Read responses return on a dedicated
/// response network modelled as contention-free (fixed per-hop
/// latency), which matches the paper's focus: all scheduling effects
/// are on the request path.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "noc/router.hpp"
#include "noc/topology.hpp"

namespace annoc::noc {

/// Receives packets ejected at the memory port.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  /// May the network start delivering this packet now?
  [[nodiscard]] virtual bool can_accept(const Packet& pkt) const = 0;
  /// Delivery begins; pkt.mem_arrival is the cycle its tail lands.
  virtual void deliver(Packet&& pkt, Cycle now) = 0;
};

/// Receives wake notifications when a packet handoff makes a sleeping
/// component runnable — the event-driven scheduler's dirty-marking
/// hook (SystemConfig::sched = event). The network reports the cycle
/// at which the receiver can first observe the handoff: the cycle the
/// head lands for router-to-router moves and injections, the tail
/// arrival for memory-sink deliveries. Unset (the default) in dense
/// and fast-forward runs — the null check is the only cost there.
class NetworkWaker {
 public:
  virtual ~NetworkWaker() = default;
  /// A packet was delivered into `router`'s input buffers; its head is
  /// visible there from cycle `at`.
  virtual void wake_router(NodeId router, Cycle at) = 0;
  /// A packet was handed to the memory sink at node `mem_node`; its
  /// tail lands at `at`. The node identifies the controller in a
  /// multi-controller fabric.
  virtual void wake_memory(NodeId mem_node, Cycle at) = 0;
};

/// Packet routing policy (Section IV-A: the GSS router works with
/// deterministic or adaptive routing; the paper's experiments use XY).
enum class RoutingPolicy : std::uint8_t {
  kXY,               ///< deterministic dimension-ordered (default)
  kAdaptiveMinimal,  ///< negative-first minimal adaptive: when both a
                     ///< west and a north move are productive, take the
                     ///< one whose downstream buffer has more free
                     ///< space. Deadlock-free (negative-first turn
                     ///< model) and minimal, per the paper's
                     ///< requirement of deadlock/livelock freedom.
};

struct NocConfig {
  std::uint32_t width = 3;
  std::uint32_t height = 3;
  /// Mesh node whose kPortMem connects to the memory subsystem (the
  /// single-controller default; superseded by `mem_nodes` when set).
  NodeId mem_node = 0;
  std::uint32_t buffer_flits = 16;
  std::uint32_t pipeline_latency = 1;
  RoutingPolicy routing = RoutingPolicy::kXY;
  /// Virtual channels per input port (1 = wormhole, the paper's
  /// experimental configuration; >1 enables VC flow control).
  std::uint32_t num_vcs = 1;
  /// Multi-controller fabrics: every node whose kPortMem hosts a
  /// memory controller, index == channel. Empty means {mem_node}.
  std::vector<NodeId> mem_nodes{};
  /// Irregular topology (file/scenario-defined). When set, width/height
  /// and XY routing are ignored: the node count is
  /// topology->num_nodes() and routing follows per-destination BFS
  /// next-hop tables (see topology.hpp). Must already validate
  /// (validate_topology().ok()); the scenario loader guarantees this
  /// with positioned diagnostics. Requires RoutingPolicy::kXY (the
  /// adaptive policy is a mesh-geometry concept).
  std::shared_ptr<const TopologySpec> topology{};
};

struct NetworkStats {
  std::uint64_t injected_packets = 0;
  std::uint64_t injected_flits = 0;
  std::uint64_t ejected_packets = 0;
  std::uint64_t ejected_flits = 0;
};

class Network {
 public:
  /// `fc_kinds` holds one flow-control kind per router (row-major); a
  /// single-element vector applies to all routers.
  Network(const NocConfig& cfg, std::vector<FlowControlKind> fc_kinds,
          const GssParams& gss);

  /// Attach one sink to EVERY memory node (the single-subsystem
  /// shape, and the natural one for tests with one sink object).
  void attach_sink(PacketSink* sink) {
    for (const NodeId n : mem_nodes_) sinks_[n] = sink;
  }

  /// Attach the sink serving one specific memory node (one controller
  /// of a multi-controller fabric). `mem_node` must be in mem_nodes().
  void attach_sink(NodeId mem_node, PacketSink* sink) {
    ANNOC_ASSERT(mem_node < sinks_.size() && is_mem_[mem_node]);
    sinks_[mem_node] = sink;
  }

  /// Memory-controller nodes, index == channel.
  [[nodiscard]] const std::vector<NodeId>& mem_nodes() const {
    return mem_nodes_;
  }
  [[nodiscard]] bool is_mem_node(NodeId n) const {
    return n < is_mem_.size() && is_mem_[n] != 0;
  }

  /// Attach the event-driven scheduler's dirty-marking hook (nullptr
  /// detaches; dense and fast-forward runs leave it unset).
  void set_waker(NetworkWaker* waker) { waker_ = waker; }

  /// Attach an observer to every router (arbitration, stall and GSS
  /// ladder events). nullptr detaches. Call again after the sink's
  /// interests change: routers cache them. Settles and wakes every
  /// router, since whether stalls are observed decides who may sleep.
  void set_observer(obs::EventSink* sink) {
    wake_all();
    for (auto& r : routers_) r->set_observer(sink);
  }

  /// Router sleep (DESIGN.md "Router sleep"): when on, tick() skips a
  /// router until its wake cycle. The simulator turns it on for the
  /// fast_forward and event schedulers; sched = dense ticks every router
  /// and is the reference. Off by default.
  void set_sleep(bool on) { sleep_ = on; }

  /// The first cycle router `id` can change otherwise than by replaying
  /// its refusal memos: tick() skips it before then when sleep is on.
  [[nodiscard]] Cycle wake_of(NodeId id) const {
    ANNOC_ASSERT(id < wake_.size());
    return wake_[id];
  }

  /// Count the replays every router skipped while asleep, through the
  /// last cycle whose turn it has had, into its RouterStats. The
  /// simulator calls it at the end of a run; a router's own tick and an
  /// arrival that drops one of its memos settle it too.
  void settle() {
    for (NodeId id = 0; id < routers_.size(); ++id) settle(id, turn_end(id));
  }

  /// Receiver for packets ejected at a node's local port (core-bound
  /// responses). Local ejection is never backpressured: cores always
  /// sink their read data.
  using LocalSink = std::function<void(Packet&&, Cycle)>;
  void attach_local_sink(LocalSink sink) { local_sink_ = std::move(sink); }

  /// Try to place `pkt` into its source node's local input buffer.
  /// Returns false when the buffer cannot take it this cycle.
  [[nodiscard]] bool try_inject(Packet&& pkt, Cycle now);

  /// Advance one cycle: free completed channels, then arbitrate and
  /// grant on every free output — of every router, or with sleep on, of
  /// every router whose wake cycle has come.
  void tick(Cycle now);

  /// Advance ONE router one cycle: free its completed transfers, then
  /// arbitrate its free outputs, then recompute its wake cycle. Dense
  /// tick() is exactly tick_router over all routers in id order; the
  /// event-driven scheduler calls it for just the routers whose
  /// deadline arrived, and a sleeping tick() for those whose wake cycle
  /// came (DESIGN.md "Router sleep"). Per-router ticking is
  /// dense-equivalent because a router's arbitration phase reads only
  /// its own transfers, its own and downstream input buffers, and the
  /// sink — never another router's Transfer state — so freeing each
  /// router's channels immediately before its own arbitration observes
  /// the same world as the global free-all-then-arbitrate-all order.
  void tick_router(NodeId id, Cycle now);

  /// Earliest future cycle (>= now) any router's state can change (min
  /// over all routers' horizons); kNeverCycle when the mesh is empty
  /// and all channels are free. See DESIGN.md "The next_event contract".
  [[nodiscard]] Cycle next_event(Cycle now) const;

  [[nodiscard]] Router& router(NodeId id) {
    ANNOC_ASSERT(id < routers_.size());
    return *routers_[id];
  }
  [[nodiscard]] const Router& router(NodeId id) const {
    ANNOC_ASSERT(id < routers_.size());
    return *routers_[id];
  }
  [[nodiscard]] std::size_t num_routers() const { return routers_.size(); }
  [[nodiscard]] const NocConfig& config() const { return cfg_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }

  /// Mesh coordinate helpers — meaningful in mesh mode only (an
  /// irregular topology has no grid coordinates).
  [[nodiscard]] NodeId node_at(std::uint32_t x, std::uint32_t y) const {
    return y * cfg_.width + x;
  }
  [[nodiscard]] std::uint32_t x_of(NodeId n) const { return n % cfg_.width; }
  [[nodiscard]] std::uint32_t y_of(NodeId n) const { return n / cfg_.width; }

  /// Route decision at `at` toward `dst` under the configured policy;
  /// at the destination, memory-bound packets take kPortMem and
  /// core-bound packets take kPortLocal. The adaptive policy consults
  /// downstream buffer occupancy, so the choice is time-dependent.
  [[nodiscard]] Port route(NodeId at, NodeId dst, bool to_memory = true) const;

  /// Downstream free space (flits) seen from `at` through output `out`.
  [[nodiscard]] std::uint32_t downstream_free(NodeId at, Port out) const;

  /// Hop distance between two nodes: Manhattan in mesh mode, BFS
  /// shortest-path in topology mode.
  [[nodiscard]] std::uint32_t hops(NodeId a, NodeId b) const;

  /// Number of packets currently buffered anywhere in the mesh.
  [[nodiscard]] std::size_t in_flight_packets() const;

  // --- fault-injection hooks (src/fault/; the simulator applies
  // schedule edges through these, identically in every sched mode).

  /// Canonical undirected router-router link list, (a, b) with a < b,
  /// in fixed (node-id, port) iteration order. The fault schedule
  /// indexes links by position in this list, so the order is part of
  /// the deterministic contract.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> link_list() const;

  /// Kill or revive the (a, b) link (both directions — links are
  /// undirected). While any link is dead the network routes by per-
  /// destination BFS next-hop tables built over the LIVE links only
  /// (overriding XY/adaptive/topology routing — documented in
  /// docs/RESILIENCE.md), and every buffered packet is rerouted; a
  /// packet whose destination became unreachable parks in place
  /// (kPortParked) until a later edge heals the partition. In-flight
  /// transfers are not cancelled: the packet object moved downstream at
  /// grant time, so the dying link only stops future grants.
  void set_link_dead(NodeId a, NodeId b, bool dead);

  /// Degraded link: every grant across (a, b) — either direction —
  /// holds the channel `penalty` extra cycles (0 restores full speed).
  /// Router-router links only.
  void set_link_penalty(NodeId a, NodeId b, std::uint32_t penalty);

  /// Slow router: arbitration (tick_router phase 2) runs only on
  /// cycles where (now - anchor) % period == 0; period <= 1 restores
  /// full speed. Channel frees (phase 1) still settle every tick —
  /// unobservable between arbitrations, so next_event() quantizes this
  /// router's horizon up to its next aligned cycle.
  void set_router_slow(NodeId router, std::uint32_t period, Cycle anchor);

  /// Monotone forward-progress token for the deadlock watchdog: grows
  /// whenever any packet is injected, forwarded one hop, or ejected.
  [[nodiscard]] std::uint64_t progress_token() const;

  /// Structured occupancy dump for watchdog diagnostics: per-router
  /// buffer census (head packets, routed outputs, what blocks them),
  /// busy channels, dead links and slow routers currently in effect.
  void dump_diagnostics(std::ostream& os, Cycle now) const;

  /// Helper for the Fig. 8 sweep: per-router flow-control kinds where
  /// the `num_gss` routers closest to a memory node (min over all
  /// controllers; ties broken by node id) use `gss_kind` and the rest
  /// use `base_kind`. Distance is Manhattan on a mesh, BFS hops on an
  /// irregular topology.
  [[nodiscard]] static std::vector<FlowControlKind> mixed_kinds(
      const NocConfig& cfg, std::size_t num_gss, FlowControlKind gss_kind,
      FlowControlKind base_kind);

 private:
  void deliver(Packet&& pkt, NodeId to, Port in_port, std::uint32_t vc,
               Cycle now);

  /// The output port of `a` facing `b` (asserts the link exists).
  [[nodiscard]] Port port_toward(NodeId a, NodeId b) const;
  /// Rebuild fault_dist_/fault_next_ over the live links (cleared when
  /// the last dead link heals).
  void rebuild_fault_tables();
  /// Re-run route() for every buffered packet in every router.
  void reroute_all();

  /// Count router `id`'s skipped replays of cycles before `upto`. A
  /// slow router never sleeps, so it owes none: the only cycles it
  /// misses are those fast-forward jumps over, where its gate is closed.
  void settle(NodeId id, Cycle upto) {
    if (upto <= settled_[id]) return;
    if (slow_period_[id] <= 1) {
      routers_[id]->count_skipped_replays(upto - settled_[id]);
    }
    settled_[id] = upto;
  }
  /// First cycle whose turn router `id` has not had yet: the turn of
  /// router i at cycle t comes after those of every router j < i at t.
  [[nodiscard]] Cycle turn_end(NodeId id) const {
    return id < turn_id_ ? turn_cycle_ + 1 : turn_cycle_;
  }
  /// Settle every router and make each tick at its next turn (fault
  /// edges: a reroute drops memos, a slow router changes cadence).
  void wake_all() {
    settle();
    std::fill(wake_.begin(), wake_.end(), Cycle{0});
  }
  /// Router `id` may change at cycle `at`: tick it at its first turn
  /// from then on.
  void wake(NodeId id, Cycle at) { wake_[id] = std::min(wake_[id], at); }
  /// Router `id` popped input `in` at `now`: wake the router feeding
  /// it if a refusal memo there waits on that input.
  void wake_feeder(NodeId id, Port in, Cycle now);

  /// One mesh link as seen from a router output: the neighbour node and
  /// the input port facing back. `nb == kInvalidNode` for ports that
  /// leave the mesh (local, mem, or off-grid edges).
  struct Link {
    NodeId nb = kInvalidNode;
    Port nb_in = kPortLocal;
  };

  NocConfig cfg_;
  std::vector<std::unique_ptr<Router>> routers_;
  /// links_[node][out], precomputed in the constructor so neither
  /// downstream_free() nor tick() redoes the x/y switch per call. In
  /// topology mode the table is filled from the assigned link slots.
  std::vector<std::array<Link, kNumPorts>> links_;
  /// Memory-controller nodes (resolved from cfg) and the sink serving
  /// each; sinks_ is indexed by node id, nullptr off the mem nodes.
  std::vector<NodeId> mem_nodes_;
  std::vector<std::uint8_t> is_mem_;
  std::vector<PacketSink*> sinks_;
  /// Topology mode only: all-pairs BFS distances and next-hop slots
  /// (see topology.hpp); empty in mesh mode.
  std::vector<std::uint16_t> topo_dist_;
  std::vector<std::uint8_t> topo_next_;
  NetworkWaker* waker_ = nullptr;
  LocalSink local_sink_;
  NetworkStats stats_;

  // Router sleep (DESIGN.md "Router sleep"). wake_[id]: tick() may skip
  // router id before this cycle. settled_[id]: its replays of cycles
  // before this one are counted. (turn_cycle_, turn_id_): the router
  // turn running or last run — every turn up to and excluding router
  // turn_id_'s at turn_cycle_ has passed.
  bool sleep_ = false;
  std::vector<Cycle> wake_;
  std::vector<Cycle> settled_;
  Cycle turn_cycle_ = 0;
  NodeId turn_id_ = 0;

  // Fault-injection state (src/fault/). All zero/empty on a healthy
  // fabric; the per-port arrays are tiny (n * kNumPorts) and always
  // allocated, the n^2 BFS tables only while a dead link exists.
  std::vector<std::array<std::uint8_t, kNumPorts>> link_dead_;
  std::vector<std::array<std::uint32_t, kNumPorts>> link_penalty_;
  std::vector<std::uint32_t> slow_period_;
  std::vector<Cycle> slow_anchor_;
  std::uint32_t num_dead_links_ = 0;  ///< undirected count
  /// While num_dead_links_ > 0: fault_dist_[dst*n + at] is the live-
  /// link BFS distance (0xffff unreachable) and fault_next_[dst*n + at]
  /// the next-hop port toward dst (kNumPorts = parked).
  std::vector<std::uint16_t> fault_dist_;
  std::vector<std::uint8_t> fault_next_;
};

}  // namespace annoc::noc
