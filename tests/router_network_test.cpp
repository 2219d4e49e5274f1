/// Tests for the router (buffers, arbitration, wormhole timing) and the
/// mesh network (XY routing, injection, ejection, backpressure).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "noc/network.hpp"
#include "noc/router.hpp"

namespace annoc::noc {
namespace {

Packet mk(NodeId src, NodeId dst, std::uint32_t flits, PacketId id = 1) {
  Packet p;
  p.id = id;
  p.parent_id = id;
  p.src_node = src;
  p.dst_node = dst;
  p.flits = flits;
  p.useful_beats = flits * 2;
  p.useful_bytes = p.useful_beats * 4;
  return p;
}

TEST(InputBuffer, AcceptsUpToCapacity) {
  InputBuffer buf(8);
  EXPECT_TRUE(buf.can_accept(8));
  Packet p = mk(0, 0, 8);
  buf.push(std::move(p));
  EXPECT_EQ(buf.used_flits(), 8u);
  EXPECT_FALSE(buf.can_accept(1));
}

TEST(InputBuffer, OversizedPacketUsesHalfBufferRule) {
  InputBuffer buf(16);
  // A 32-flit packet needs only capacity/2 = 8 free slots (wormhole
  // streaming with bounded overcommit), and is charged the full 16.
  Packet small = mk(0, 0, 6);
  buf.push(std::move(small));
  EXPECT_TRUE(buf.can_accept(32)) << "6 used, 10 free >= 8 needed";
  Packet big = mk(0, 0, 32);
  buf.push(std::move(big));
  EXPECT_EQ(buf.used_flits(), 22u);
  EXPECT_FALSE(buf.can_accept(32)) << "no room for a second giant";
  EXPECT_FALSE(buf.can_accept(1));
}

TEST(InputBuffer, PopRestoresSpace) {
  InputBuffer buf(8);
  buf.push(mk(0, 0, 5));
  buf.push(mk(0, 0, 3));
  EXPECT_EQ(buf.used_flits(), 8u);
  (void)buf.pop();
  EXPECT_EQ(buf.used_flits(), 3u);
  EXPECT_TRUE(buf.can_accept(5));
}

TEST(Router, GrantOccupiesChannelForPacketLength) {
  Router r(0, 0, 0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 6);
  p.head_arrival = 10;
  p.tail_arrival = 15;
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);

  auto win = r.arbitrate(kPortWest, 10);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->port, kPortEast);
  EXPECT_EQ(win->vc, 0u);
  Packet granted = r.grant(*win, kPortWest, 10);
  const Transfer& tr = r.output(kPortWest);
  EXPECT_TRUE(tr.active);
  EXPECT_EQ(tr.start, 10u);
  EXPECT_EQ(tr.end, 16u);  // max(10+6, 15+1)
  EXPECT_EQ(granted.head_arrival, 11u);
  EXPECT_EQ(granted.tail_arrival, 16u);
}

TEST(Router, TailArrivalExtendsHold) {
  Router r(0, 0, 0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 4);
  p.head_arrival = 10;
  p.tail_arrival = 30;  // still streaming in from upstream
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);
  auto win = r.arbitrate(kPortWest, 12);
  ASSERT_TRUE(win.has_value());
  (void)r.grant(*win, kPortWest, 12);
  EXPECT_EQ(r.output(kPortWest).end, 31u);  // max(12+4, 30+1)
}

TEST(Router, PipelineDelaysEligibility) {
  Router r(0, 0, 0, 16, /*pipeline=*/3, FlowControlKind::kRoundRobin, {});
  Packet p = mk(0, 99, 2);
  p.head_arrival = 10;
  p.tail_arrival = 11;
  r.on_arrival(std::move(p), kPortEast, 0, kPortWest, 10);
  EXPECT_FALSE(r.arbitrate(kPortWest, 10).has_value());
  EXPECT_FALSE(r.arbitrate(kPortWest, 11).has_value());
  EXPECT_TRUE(r.arbitrate(kPortWest, 12).has_value());
}

TEST(Router, HeadOfLineBlocksOtherOutputs) {
  Router r(0, 0, 0, 16, 1, FlowControlKind::kRoundRobin, {});
  Packet a = mk(0, 99, 2, 1);  // head, routed to West
  a.head_arrival = 5;
  a.tail_arrival = 6;
  Packet b = mk(0, 98, 2, 2);  // behind it, routed to North
  b.head_arrival = 6;
  b.tail_arrival = 7;
  r.on_arrival(std::move(a), kPortEast, 0, kPortWest, 5);
  r.on_arrival(std::move(b), kPortEast, 0, kPortNorth, 6);
  // The second packet cannot arbitrate for North while the head wants
  // West (in-order buffers).
  EXPECT_FALSE(r.arbitrate(kPortNorth, 10).has_value());
  EXPECT_TRUE(r.arbitrate(kPortWest, 10).has_value());
}

class MemSink final : public PacketSink {
 public:
  bool can_accept(const Packet&) const override { return accept_; }
  void deliver(Packet&& p, Cycle now) override {
    delivered.push_back(std::move(p));
    last_cycle = now;
  }
  bool accept_ = true;
  std::vector<Packet> delivered;
  Cycle last_cycle = 0;
};

NocConfig cfg3x3() {
  NocConfig c;
  c.width = 3;
  c.height = 3;
  c.mem_node = 0;
  c.buffer_flits = 16;
  c.pipeline_latency = 1;
  return c;
}

TEST(Network, XyRoutingReachesMemoryPort) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  // From node 8 (x=2,y=2) to node 0: west first (X), then north (Y).
  EXPECT_EQ(net.route(8, 0), kPortWest);
  EXPECT_EQ(net.route(6, 0), kPortNorth);  // x already 0
  EXPECT_EQ(net.route(2, 0), kPortWest);
  EXPECT_EQ(net.route(0, 0), kPortMem);
}

TEST(Network, HopsAreManhattan) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(8, 0), 4u);
  EXPECT_EQ(net.hops(5, 0), 3u);
  EXPECT_EQ(net.hops(1, 3), 2u);
}

TEST(Network, InjectDeliverEndToEnd) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  net.attach_sink(&sink);

  Packet p = mk(8, 0, 4, 42);
  p.created = 0;
  ASSERT_TRUE(net.try_inject(std::move(p), 0));
  EXPECT_EQ(net.in_flight_packets(), 1u);

  for (Cycle t = 0; t < 100 && sink.delivered.empty(); ++t) net.tick(t);
  ASSERT_EQ(sink.delivered.size(), 1u);
  const Packet& d = sink.delivered[0];
  EXPECT_EQ(d.id, 42u);
  // 4 hops, 4 flits: arrival no earlier than hops + flits.
  EXPECT_GE(d.mem_arrival, 8u);
  EXPECT_LE(d.mem_arrival, 30u);
  EXPECT_EQ(net.in_flight_packets(), 0u);
  EXPECT_EQ(net.stats().injected_packets, 1u);
  EXPECT_EQ(net.stats().ejected_packets, 1u);
}

TEST(Network, LocalInjectionAtMemNodeIsOneGrantAway) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  net.attach_sink(&sink);
  ASSERT_TRUE(net.try_inject(mk(0, 0, 2, 7), 0));
  for (Cycle t = 0; t < 20 && sink.delivered.empty(); ++t) net.tick(t);
  ASSERT_EQ(sink.delivered.size(), 1u);
  EXPECT_LE(sink.delivered[0].mem_arrival, 6u);
}

TEST(Network, SinkBackpressureHoldsPackets) {
  Network net(cfg3x3(), {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  ASSERT_TRUE(net.try_inject(mk(1, 0, 2, 1), 0));
  for (Cycle t = 0; t < 50; ++t) net.tick(t);
  EXPECT_TRUE(sink.delivered.empty());
  EXPECT_EQ(net.in_flight_packets(), 1u);
  sink.accept_ = true;
  for (Cycle t = 50; t < 80 && sink.delivered.empty(); ++t) net.tick(t);
  EXPECT_EQ(sink.delivered.size(), 1u);
}

TEST(Network, InjectFailsWhenBufferFull) {
  NocConfig c = cfg3x3();
  c.buffer_flits = 4;
  Network net(c, {FlowControlKind::kRoundRobin}, {});
  MemSink sink;
  sink.accept_ = false;  // nothing drains
  net.attach_sink(&sink);
  EXPECT_TRUE(net.try_inject(mk(0, 0, 4, 1), 0));
  // The local buffer (4 flits) is now full; packets must be refused.
  EXPECT_FALSE(net.try_inject(mk(0, 0, 4, 2), 1));
}

TEST(Network, ManyPacketsAllArrive) {
  Network net(cfg3x3(), {FlowControlKind::kSdramAware}, {});
  MemSink sink;
  net.attach_sink(&sink);
  PacketId id = 1;
  std::size_t injected = 0;
  Cycle t = 0;
  while (injected < 50 && t < 2000) {
    for (NodeId n = 0; n < 9; ++n) {
      Packet p = mk(n, 0, 2, id);
      p.loc.bank = static_cast<BankId>(n % 4);
      if (injected < 50 && net.try_inject(std::move(p), t)) {
        ++id;
        ++injected;
      }
    }
    net.tick(t);
    ++t;
  }
  for (; t < 5000 && sink.delivered.size() < injected; ++t) net.tick(t);
  EXPECT_EQ(sink.delivered.size(), injected);
  // No duplicates.
  std::map<PacketId, int> ids;
  for (const auto& p : sink.delivered) ++ids[p.id];
  for (const auto& [pid, count] : ids) {
    EXPECT_EQ(count, 1) << "packet " << pid << " duplicated";
  }
}

TEST(Network, MixedKindsOrdersByDistance) {
  NocConfig c = cfg3x3();
  auto kinds = Network::mixed_kinds(c, 3, FlowControlKind::kGss,
                                    FlowControlKind::kPriorityFirst);
  ASSERT_EQ(kinds.size(), 9u);
  // Closest three to node 0: nodes 0 (d0), 1 and 3 (d1).
  EXPECT_EQ(kinds[0], FlowControlKind::kGss);
  EXPECT_EQ(kinds[1], FlowControlKind::kGss);
  EXPECT_EQ(kinds[3], FlowControlKind::kGss);
  EXPECT_EQ(kinds[2], FlowControlKind::kPriorityFirst);
  EXPECT_EQ(kinds[4], FlowControlKind::kPriorityFirst);
}

TEST(Network, MixedKindsZeroAndAll) {
  NocConfig c = cfg3x3();
  auto none = Network::mixed_kinds(c, 0, FlowControlKind::kGss,
                                   FlowControlKind::kRoundRobin);
  for (auto k : none) EXPECT_EQ(k, FlowControlKind::kRoundRobin);
  auto all = Network::mixed_kinds(c, 9, FlowControlKind::kGss,
                                  FlowControlKind::kRoundRobin);
  for (auto k : all) EXPECT_EQ(k, FlowControlKind::kGss);
  auto over = Network::mixed_kinds(c, 99, FlowControlKind::kGss,
                                   FlowControlKind::kRoundRobin);
  for (auto k : over) EXPECT_EQ(k, FlowControlKind::kGss);
}

TEST(Network, PerRouterKindsApplied) {
  NocConfig c = cfg3x3();
  auto kinds = Network::mixed_kinds(c, 3, FlowControlKind::kGssSti,
                                    FlowControlKind::kPriorityFirst);
  Network net(c, kinds, {});
  EXPECT_EQ(net.router(0).fc_kind(), FlowControlKind::kGssSti);
  EXPECT_EQ(net.router(8).fc_kind(), FlowControlKind::kPriorityFirst);
}

// --- refused-round replay -------------------------------------------------
// A winner refused by a full downstream buffer is memoised; while the
// memo holds, tick_router replays the round (one arbitration round, one
// kDownstreamFull stall) without scan, select() or find_vc(). These
// tests pin that the replay is indistinguishable from re-arbitrating.

/// Records every stall event.
class StallLog final : public obs::EventSink {
 public:
  void on_stall(const obs::StallEvent& e) override { stalls.push_back(e); }
  /// Stalls of one router output, in emission order.
  [[nodiscard]] std::vector<obs::StallEvent> of(NodeId router,
                                                Port out) const {
    std::vector<obs::StallEvent> v;
    for (const obs::StallEvent& e : stalls) {
      if (e.router == router && e.out_port == out) v.push_back(e);
    }
    return v;
  }
  std::vector<obs::StallEvent> stalls;
};

/// Inject 2-flit packets at `src` (toward `dst`) on cycles [from, to)
/// whenever the local buffer has room, at most `limit` in total, ticking
/// the network each cycle. Returns the number injected.
std::size_t fill(Network& net, NodeId src, NodeId dst, Cycle from, Cycle to,
                 std::size_t limit, PacketId& id) {
  std::size_t injected = 0;
  for (Cycle t = from; t < to; ++t) {
    if (injected < limit && net.try_inject(mk(src, dst, 2, id), t)) {
      ++id;
      ++injected;
    }
    net.tick(t);
  }
  return injected;
}

NocConfig line(std::uint32_t width, NodeId mem, std::uint32_t buffer) {
  NocConfig c;
  c.width = width;
  c.height = 1;
  c.mem_node = mem;
  c.buffer_flits = buffer;
  return c;
}

TEST(RefusalReplay, BlockedStretchCountsOneRoundAndOneStallPerCycle) {
  // 2x1, memory behind node 0 never accepts: node 0's east buffer
  // fills, and node 1's west output is refused every cycle after.
  Network net(line(2, 0, 4), {FlowControlKind::kPriorityFirst}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  StallLog log;
  net.set_observer(&log);
  PacketId id = 1;
  fill(net, 1, 0, 0, 20, 100, id);
  const Router& r1 = net.router(1);
  ASSERT_TRUE(r1.has_refusal_memo(kPortWest));

  const RouterStats before = r1.stats();
  log.stalls.clear();
  for (Cycle t = 20; t < 40; ++t) {
    net.tick(t);
    EXPECT_TRUE(r1.has_refusal_memo(kPortWest)) << "cycle " << t;
  }
  EXPECT_EQ(r1.stats().arbitration_rounds - before.arbitration_rounds, 20u);
  EXPECT_EQ(r1.stats().blocked_on_downstream - before.blocked_on_downstream,
            20u);
  EXPECT_EQ(r1.stats().packets_forwarded, before.packets_forwarded);
  const std::vector<obs::StallEvent> st = log.of(1, kPortWest);
  ASSERT_EQ(st.size(), 20u);
  for (std::size_t i = 0; i < st.size(); ++i) {
    EXPECT_EQ(st[i].at, 20 + i);
    EXPECT_EQ(st[i].cause, obs::StallCause::kDownstreamFull);
  }
}

TEST(RefusalReplay, ArrivalMidStretchAgesTokensAndForcesFreshRound) {
  Network net(line(2, 0, 8), {FlowControlKind::kGss}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  StallLog log;
  net.set_observer(&log);
  PacketId id = 1;
  // 4 packets fill node 0's east buffer; 3 wait at node 1, leaving room
  // for one more.
  ASSERT_EQ(fill(net, 1, 0, 0, 40, 7, id), 7u);
  Router& r1 = net.router(1);
  ASSERT_TRUE(r1.has_refusal_memo(kPortWest));
  const std::uint32_t tokens = r1.head(kPortLocal).gss_tokens;
  ASSERT_LT(tokens, 5u) << "head already at the GSS token cap";
  const RouterStats before = r1.stats();

  ASSERT_TRUE(net.try_inject(mk(1, 0, 2, id++), 40));
  EXPECT_FALSE(r1.has_refusal_memo(kPortWest))
      << "an arrival routed to the output must drop its memo";
  EXPECT_EQ(r1.head(kPortLocal).gss_tokens, tokens + 1)
      << "the arrival ages the waiting head";
  log.stalls.clear();
  net.tick(40);
  // A fresh round ran, was refused again and re-took the memo.
  EXPECT_TRUE(r1.has_refusal_memo(kPortWest));
  EXPECT_EQ(r1.stats().arbitration_rounds, before.arbitration_rounds + 1);
  EXPECT_EQ(r1.stats().blocked_on_downstream,
            before.blocked_on_downstream + 1);
  const std::vector<obs::StallEvent> st = log.of(1, kPortWest);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].at, 40u);
}

/// One tick_router phase-2 step of mesh output `out`, whose downstream
/// input buffer is `down` (a stand-in for the neighbour router).
/// Returns the granted packet, if any.
std::optional<Packet> step(Router& r, Port out, InputBuffer& down,
                           Cycle now) {
  Transfer& tr = r.output(out);
  if (tr.active && now >= tr.end) tr.active = false;
  if (tr.active || r.output_pool_empty(out)) return std::nullopt;
  if (r.replay_refused(out, now)) return std::nullopt;
  const std::optional<VcId> win = r.arbitrate(out, now);
  if (!win) return std::nullopt;
  if (!down.can_accept(r.head(*win).flits)) {
    r.note_refused(out, down, now);
    return std::nullopt;
  }
  Packet p = r.grant(*win, out, now);
  down.push(Packet(p));
  return p;
}

TEST(RefusalReplay, HeadTurningEligibleMidStretchJoinsNextRound) {
  // Pipeline 4: a head landing at cycle h is grantable from h + 3.
  Router r(1, 1, 0, 16, /*pipeline=*/4, FlowControlKind::kPriorityFirst,
           {});
  InputBuffer down(8);
  down.push(mk(9, 9, 6, 100));  // 2 flits free
  Packet c = mk(1, 0, 4, 1);    // needs 4 free: refused
  c.head_arrival = 1;
  c.tail_arrival = 4;
  r.on_arrival(std::move(c), kPortLocal, 0, kPortWest, 0);
  Packet x = mk(2, 0, 2, 2);  // priority, needs 2 free: fits
  x.svc = ServiceClass::kPriority;
  x.head_arrival = 4;  // eligible from cycle 7
  x.tail_arrival = 5;
  r.on_arrival(std::move(x), kPortEast, 0, kPortWest, 3);

  for (Cycle t = 0; t < 7; ++t) {
    EXPECT_FALSE(step(r, kPortWest, down, t).has_value()) << "cycle " << t;
    if (t >= 4) {
      EXPECT_TRUE(r.has_refusal_memo(kPortWest)) << "cycle " << t;
    }
  }
  // Cycles 4..6 refused the lone candidate; at 7 the priority head is
  // eligible, the memo expires and a fresh round grants it.
  const std::optional<Packet> g = step(r, kPortWest, down, 7);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->id, 2u);
  EXPECT_EQ(r.output(kPortWest).start, 7u);
  EXPECT_EQ(r.stats().arbitration_rounds, 4u);
  EXPECT_EQ(r.stats().blocked_on_downstream, 3u);
}

TEST(RefusalReplay, GrantExposingANewHeadDropsThatOutputsMemo) {
  Router r(1, 1, 0, 16, 1, FlowControlKind::kPriorityFirst, {});
  InputBuffer down_west(8);
  down_west.push(mk(9, 9, 6, 100));  // 2 flits free
  InputBuffer down_north(8);
  down_north.push(mk(9, 9, 8, 101));  // full
  Packet c = mk(2, 0, 4, 1);  // west, needs 4 free: refused
  c.head_arrival = 1;
  c.tail_arrival = 4;
  r.on_arrival(std::move(c), kPortEast, 0, kPortWest, 0);
  Packet h1 = mk(1, 0, 2, 2);  // north: refused while down_north is full
  h1.head_arrival = 1;
  h1.tail_arrival = 2;
  r.on_arrival(std::move(h1), kPortLocal, 0, kPortNorth, 0);
  Packet h2 = mk(1, 0, 2, 3);  // west, priority, fits; behind h1
  h2.svc = ServiceClass::kPriority;
  h2.head_arrival = 1;
  h2.tail_arrival = 2;
  r.on_arrival(std::move(h2), kPortLocal, 0, kPortWest, 0);

  // tick_router order: north before west.
  for (Cycle t = 1; t < 5; ++t) {
    EXPECT_FALSE(step(r, kPortNorth, down_north, t).has_value());
    EXPECT_FALSE(step(r, kPortWest, down_west, t).has_value());
  }
  ASSERT_TRUE(r.has_refusal_memo(kPortNorth));
  ASSERT_TRUE(r.has_refusal_memo(kPortWest));
  (void)down_north.pop();
  // North grants h1; h2 becomes a head routed west, so west's memo must
  // go and a fresh round grants the priority packet in the same cycle.
  const std::optional<Packet> n = step(r, kPortNorth, down_north, 5);
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->id, 2u);
  EXPECT_FALSE(r.has_refusal_memo(kPortWest));
  const std::optional<Packet> w = step(r, kPortWest, down_west, 5);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->id, 3u);
}

TEST(RefusalReplay, DownstreamPopGrantsInTheSameCycleAsWithoutReplay) {
  // The refusing buffer's router ticks BEFORE the refused one (mem at
  // node 0, traffic from node 1): the pop is visible in the same cycle.
  {
    Network net(line(2, 0, 8), {FlowControlKind::kPriorityFirst}, {});
    MemSink sink;
    sink.accept_ = false;
    net.attach_sink(&sink);
    PacketId id = 1;
    fill(net, 1, 0, 0, 40, 100, id);
    ASSERT_TRUE(net.router(1).has_refusal_memo(kPortWest));
    sink.accept_ = true;
    net.tick(40);
    const Transfer& tr = net.router(1).output(kPortWest);
    EXPECT_TRUE(tr.active);
    EXPECT_EQ(tr.start, 40u);
  }
  // ... and AFTER it (mem at node 1, traffic from node 0): the pop is
  // seen one cycle later, exactly as a fresh find_vc() would see it.
  {
    Network net(line(2, 1, 8), {FlowControlKind::kPriorityFirst}, {});
    MemSink sink;
    sink.accept_ = false;
    net.attach_sink(&sink);
    StallLog log;
    net.set_observer(&log);
    PacketId id = 1;
    fill(net, 0, 1, 0, 40, 100, id);
    ASSERT_TRUE(net.router(0).has_refusal_memo(kPortEast));
    sink.accept_ = true;
    log.stalls.clear();
    net.tick(40);
    EXPECT_FALSE(net.router(0).output(kPortEast).active);
    ASSERT_EQ(log.of(0, kPortEast).size(), 1u);
    net.tick(41);
    const Transfer& tr = net.router(0).output(kPortEast);
    EXPECT_TRUE(tr.active);
    EXPECT_EQ(tr.start, 41u);
  }
}

TEST(RefusalReplay, DeadLinkRerouteDropsAllMemos) {
  // 2x2, memory behind node 0 never accepts. Nodes 3 and 2 inject:
  // node 3's traffic goes west to node 2, then north with node 2's own.
  // Everything backs up.
  NocConfig c = cfg3x3();
  c.width = 2;
  c.height = 2;
  c.buffer_flits = 4;
  Network net(c, {FlowControlKind::kPriorityFirst}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  PacketId id = 1;
  for (Cycle t = 0; t < 40; ++t) {
    if (net.try_inject(mk(3, 0, 2, id), t)) ++id;
    if (net.try_inject(mk(2, 0, 2, id), t)) ++id;
    net.tick(t);
  }
  ASSERT_TRUE(net.router(3).has_refusal_memo(kPortWest));
  ASSERT_TRUE(net.router(2).has_refusal_memo(kPortNorth));
  const std::uint64_t fwd3 = net.router(3).stats().packets_forwarded;

  net.set_link_dead(2, 3, true);
  for (NodeId n = 0; n < 4; ++n) {
    for (int p = 0; p < kNumPorts; ++p) {
      EXPECT_FALSE(net.router(n).has_refusal_memo(static_cast<Port>(p)))
          << "router " << n << " port " << p;
    }
  }
  // Node 3 now routes north through the idle node 1 and moves at once.
  net.tick(40);
  EXPECT_TRUE(net.router(3).output(kPortNorth).active);
  EXPECT_EQ(net.router(3).stats().packets_forwarded, fwd3 + 1);
  // Node 2's north output is still refused: a fresh round re-took it.
  EXPECT_TRUE(net.router(2).has_refusal_memo(kPortNorth));
}

TEST(RefusalReplay, SlowRouterGateIsHonoured) {
  Network net(line(2, 0, 4), {FlowControlKind::kPriorityFirst}, {});
  MemSink sink;
  sink.accept_ = false;
  net.attach_sink(&sink);
  StallLog log;
  net.set_observer(&log);
  PacketId id = 1;
  fill(net, 1, 0, 0, 20, 100, id);
  ASSERT_TRUE(net.router(1).has_refusal_memo(kPortWest));
  net.set_router_slow(1, 3, 20);
  const std::uint64_t rounds = net.router(1).stats().arbitration_rounds;
  log.stalls.clear();
  for (Cycle t = 20; t < 40; ++t) net.tick(t);
  // Arbitration (and so replay) only on cycles 20, 23, ..., 38.
  const std::vector<obs::StallEvent> st = log.of(1, kPortWest);
  ASSERT_EQ(st.size(), 7u);
  for (std::size_t i = 0; i < st.size(); ++i) EXPECT_EQ(st[i].at, 20 + 3 * i);
  EXPECT_EQ(net.router(1).stats().arbitration_rounds, rounds + 7);
}

}  // namespace
}  // namespace annoc::noc
