/// Tests for the router (buffers, arbitration, wormhole timing) and the
/// mesh network (XY routing, injection, ejection, backpressure).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

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

// Router sleep (DESIGN.md "Router sleep"): with sleep on, tick() skips
// a router until its wake cycle and counts the memoised replays it
// skipped lazily. Each test runs one fabric twice, ticking every router
// in one copy and letting routers sleep in the other, and requires the
// same RouterStats wherever the lazy counts are due.

/// The same fabric twice; every operation goes to both copies.
struct Twin {
  Twin(const NocConfig& c, FlowControlKind kind)
      : dense(c, {kind}, {}), asleep(c, {kind}, {}) {
    dense.attach_sink(&dense_sink);
    asleep.attach_sink(&asleep_sink);
    dense_sink.accept_ = false;
    asleep_sink.accept_ = false;
    asleep.set_sleep(true);
  }
  void accept(bool on) {
    dense_sink.accept_ = on;
    asleep_sink.accept_ = on;
  }
  void inject(NodeId src, NodeId dst, Cycle t) {
    const bool a = dense.try_inject(mk(src, dst, 2, id), t);
    EXPECT_EQ(asleep.try_inject(mk(src, dst, 2, id), t), a) << "cycle " << t;
    ++id;
  }
  void tick(Cycle t) {
    dense.tick(t);
    asleep.tick(t);
  }
  /// Inject at `src` toward `dst` and tick, every cycle of [from, to).
  void fill(NodeId src, NodeId dst, Cycle from, Cycle to) {
    for (Cycle t = from; t < to; ++t) {
      inject(src, dst, t);
      tick(t);
    }
  }
  /// Router `r`'s stats in the sleeping copy, as they stand, equal the
  /// dense copy's.
  void expect_same(NodeId r, const std::string& where) const {
    const RouterStats& d = dense.router(r).stats();
    const RouterStats& a = asleep.router(r).stats();
    EXPECT_EQ(a.arbitration_rounds, d.arbitration_rounds)
        << where << ", router " << r;
    EXPECT_EQ(a.blocked_on_downstream, d.blocked_on_downstream)
        << where << ", router " << r;
    EXPECT_EQ(a.packets_forwarded, d.packets_forwarded)
        << where << ", router " << r;
  }
  void expect_all_same(const std::string& where) const {
    for (NodeId r = 0; r < dense.num_routers(); ++r) expect_same(r, where);
  }
  Network dense, asleep;
  MemSink dense_sink, asleep_sink;
  PacketId id = 1;
};

TEST(RouterSleep, MemoisedRouterIsNotTickedAndSettleCountsItsReplaysOnce) {
  // 3x1, memory behind node 0 never accepts, traffic from node 2:
  // nodes 1 and 2 end up refused westward every cycle.
  Twin tw(line(3, 0, 4), FlowControlKind::kPriorityFirst);
  tw.fill(2, 0, 0, 30);
  for (const NodeId r : {NodeId{1}, NodeId{2}}) {
    ASSERT_TRUE(tw.asleep.router(r).has_refusal_memo(kPortWest));
    EXPECT_EQ(tw.asleep.wake_of(r), kNeverCycle) << "router " << r;
  }
  const RouterStats r1 = tw.asleep.router(1).stats();
  const RouterStats r2 = tw.asleep.router(2).stats();
  const std::uint64_t dense_rounds =
      tw.dense.router(1).stats().arbitration_rounds;
  tw.fill(2, 0, 30, 60);
  // Not ticked: a tick would have counted its replay on the spot.
  EXPECT_EQ(tw.asleep.router(1).stats().arbitration_rounds,
            r1.arbitration_rounds);
  EXPECT_EQ(tw.asleep.router(2).stats().arbitration_rounds,
            r2.arbitration_rounds);
  EXPECT_EQ(tw.dense.router(1).stats().arbitration_rounds,
            dense_rounds + 30);
  // The memory node keeps being refused by its sink: never asleep.
  EXPECT_EQ(tw.asleep.wake_of(0), 60u);
  tw.expect_same(0, "awake");
  tw.asleep.settle();
  tw.expect_all_same("settled");
  tw.asleep.settle();
  tw.expect_all_same("settled twice");
  tw.fill(2, 0, 60, 70);
  tw.asleep.settle();
  tw.expect_all_same("settled again");
}

TEST(RouterSleep, ArrivalSettlesExactCountsFromAHigherSender) {
  // Memory at node 0; node 1 is blocked westward and asleep. Node 2's
  // packet reaches node 1 at cycle 41, after node 1's turn: node 1's
  // replay at 41 still counts, its fresh round comes at 42.
  Twin tw(line(3, 0, 4), FlowControlKind::kPriorityFirst);
  tw.fill(1, 0, 0, 40);
  ASSERT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortWest));
  tw.inject(2, 0, 40);
  tw.tick(40);
  EXPECT_LT(tw.asleep.router(1).stats().arbitration_rounds,
            tw.dense.router(1).stats().arbitration_rounds)
      << "router 1 should be asleep before the arrival";
  tw.tick(41);
  EXPECT_EQ(tw.asleep.router(2).output(kPortWest).start, 41u);
  EXPECT_FALSE(tw.asleep.router(1).has_refusal_memo(kPortWest));
  EXPECT_EQ(tw.asleep.wake_of(1), 41u);
  tw.expect_same(1, "arrival from a higher id");
  tw.tick(42);
  EXPECT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortWest));
  tw.expect_same(1, "fresh round after the arrival");
  tw.asleep.settle();
  tw.expect_all_same("settled");
}

TEST(RouterSleep, ArrivalSettlesExactCountsFromALowerSender) {
  // Memory at node 2; node 1 is blocked eastward and asleep. Node 0's
  // packet reaches node 1 at cycle 41, before node 1's turn: the
  // arrival's fresh round replaces the replay at 41.
  Twin tw(line(3, 2, 4), FlowControlKind::kPriorityFirst);
  tw.fill(1, 2, 0, 40);
  ASSERT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortEast));
  tw.inject(0, 2, 40);
  tw.tick(40);
  EXPECT_LT(tw.asleep.router(1).stats().arbitration_rounds,
            tw.dense.router(1).stats().arbitration_rounds)
      << "router 1 should be asleep before the arrival";
  tw.tick(41);
  EXPECT_EQ(tw.asleep.router(0).output(kPortEast).start, 41u);
  // Router 1 ran a fresh round at 41, behind the arrival; with the
  // newcomer's head eligible from 42 that round is not memoised.
  EXPECT_FALSE(tw.asleep.router(1).has_refusal_memo(kPortEast));
  EXPECT_EQ(tw.asleep.wake_of(1), 42u);
  tw.expect_same(1, "arrival from a lower id");
  tw.tick(42);
  EXPECT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortEast));
  tw.expect_same(1, "fresh round with the newcomer");
  tw.asleep.settle();
  tw.expect_all_same("settled");
}

TEST(RouterSleep, DownstreamPopWakesTheUpstreamRouter) {
  // The popping router ticks BEFORE the sleeping one (memory at node 0,
  // traffic from node 1): woken and granted in the same cycle.
  {
    Twin tw(line(2, 0, 8), FlowControlKind::kPriorityFirst);
    tw.fill(1, 0, 0, 40);
    ASSERT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortWest));
    ASSERT_GT(tw.asleep.wake_of(1), 40u);
    tw.accept(true);
    tw.tick(40);
    const Transfer& tr = tw.asleep.router(1).output(kPortWest);
    EXPECT_TRUE(tr.active);
    EXPECT_EQ(tr.start, 40u);
    tw.expect_all_same("same-cycle wake");
  }
  // ... and AFTER it (memory at node 1, traffic from node 0): woken for
  // the next cycle, where a fresh find_vc() sees the space.
  {
    Twin tw(line(2, 1, 8), FlowControlKind::kPriorityFirst);
    tw.fill(0, 1, 0, 40);
    ASSERT_TRUE(tw.asleep.router(0).has_refusal_memo(kPortEast));
    ASSERT_GT(tw.asleep.wake_of(0), 40u);
    tw.accept(true);
    tw.tick(40);
    EXPECT_FALSE(tw.asleep.router(0).output(kPortEast).active);
    EXPECT_EQ(tw.asleep.wake_of(0), 40u);
    tw.tick(41);
    const Transfer& tr = tw.asleep.router(0).output(kPortEast);
    EXPECT_TRUE(tr.active);
    EXPECT_EQ(tr.start, 41u);
    tw.expect_all_same("next-cycle wake");
  }
}

TEST(RouterSleep, DeadLinkEdgeSettlesAndWakesEveryRouter) {
  // 2x2 as in RefusalReplay.DeadLinkRerouteDropsAllMemos: nodes 2 and 3
  // are blocked and asleep when the (2, 3) link dies.
  NocConfig c = cfg3x3();
  c.width = 2;
  c.height = 2;
  c.buffer_flits = 4;
  Twin tw(c, FlowControlKind::kPriorityFirst);
  for (Cycle t = 0; t < 40; ++t) {
    tw.inject(3, 0, t);
    tw.inject(2, 0, t);
    tw.tick(t);
  }
  ASSERT_TRUE(tw.asleep.router(3).has_refusal_memo(kPortWest));
  ASSERT_TRUE(tw.asleep.router(2).has_refusal_memo(kPortNorth));
  ASSERT_GT(tw.asleep.wake_of(3), 40u);
  tw.dense.set_link_dead(2, 3, true);
  tw.asleep.set_link_dead(2, 3, true);
  tw.expect_all_same("dead-link edge");
  for (NodeId r = 0; r < 4; ++r) EXPECT_LE(tw.asleep.wake_of(r), 40u);
  tw.tick(40);
  EXPECT_TRUE(tw.asleep.router(3).output(kPortNorth).active);
  for (Cycle t = 41; t < 60; ++t) tw.tick(t);
  tw.asleep.settle();
  tw.expect_all_same("after the edge");
}

TEST(RouterSleep, SlowRouterEdgeSettlesWakesAndKeepsTheRouterAwake) {
  Twin tw(line(3, 0, 4), FlowControlKind::kPriorityFirst);
  tw.fill(2, 0, 0, 20);
  ASSERT_GT(tw.asleep.wake_of(1), 20u);
  tw.dense.set_router_slow(1, 3, 20);
  tw.asleep.set_router_slow(1, 3, 20);
  tw.expect_all_same("slow-router edge");
  for (NodeId r = 0; r < 3; ++r) EXPECT_LE(tw.asleep.wake_of(r), 20u);
  for (Cycle t = 20; t < 40; ++t) {
    tw.tick(t);
    // A slow router replays only on its arbitration cycles, so it is
    // ticked every cycle instead of sleeping.
    EXPECT_EQ(tw.asleep.wake_of(1), t + 1);
    tw.expect_same(1, "slow, cycle " + std::to_string(t));
  }
  tw.dense.set_router_slow(1, 0, 40);
  tw.asleep.set_router_slow(1, 0, 40);
  tw.fill(2, 0, 40, 60);
  EXPECT_GT(tw.asleep.wake_of(1), 60u) << "full speed again: may sleep";
  tw.asleep.settle();
  tw.expect_all_same("after the edges");
}

TEST(RouterSleep, GrantDroppingAnEarlierOutputsMemoWakesNextCycle) {
  // Memories at both ends of a 3x1 line, pipeline 3. Node 1 holds an
  // eastward memo for node 0's traffic. Its local buffer then takes P1
  // (west) and, behind it, P2 (east). At 33 the west grant of P1 makes
  // P2 a head routed east and drops the east memo, which tick_router
  // already replayed that cycle (east comes before west). East needs a
  // fresh round at 34 although P2 itself only turns eligible at 35.
  NocConfig c = line(3, 0, 4);
  c.mem_nodes = {0, 2};
  c.pipeline_latency = 3;
  Twin tw(c, FlowControlKind::kPriorityFirst);
  tw.fill(0, 2, 0, 30);
  ASSERT_TRUE(tw.asleep.router(1).has_refusal_memo(kPortEast));
  // Node 0's memory lets P1 through; node 2's still refuses.
  MemSink open_dense, open_asleep;
  tw.dense.attach_sink(0, &open_dense);
  tw.asleep.attach_sink(0, &open_asleep);
  tw.inject(1, 0, 30);
  for (Cycle t = 30; t < 40; ++t) {
    if (t == 32) tw.inject(1, 2, t);
    tw.tick(t);
    if (t == 33) {
      ASSERT_TRUE(tw.asleep.router(1).output(kPortWest).active);
      EXPECT_FALSE(tw.asleep.router(1).has_refusal_memo(kPortEast));
      EXPECT_EQ(tw.asleep.wake_of(1), 34u);
    }
  }
  tw.asleep.settle();
  tw.expect_all_same("settled");
}

TEST(RouterSleep, FastForwardOverASlowRoutersClosedCyclesCountsNoReplay) {
  // A degraded 1->0 link holds node 1's west channel for 200 cycles;
  // node 2, blocked behind it, holds a westward memo and is slowed to
  // period 3. Nothing else moves, so a fast-forward run executes only
  // node 2's arbitration cycles (Network::next_event rounds a slow
  // router up to them). The jumped cycles replay nothing: dense
  // stepping reaches them and finds the gate closed.
  Twin tw(line(4, 0, 4), FlowControlKind::kPriorityFirst);
  tw.accept(true);
  tw.dense.set_link_penalty(0, 1, 200);
  tw.asleep.set_link_penalty(0, 1, 200);
  tw.fill(2, 0, 0, 20);
  ASSERT_TRUE(tw.asleep.router(2).has_refusal_memo(kPortWest));
  tw.dense.set_router_slow(2, 3, 20);
  tw.asleep.set_router_slow(2, 3, 20);
  for (Cycle t = 20; t < 50; ++t) {
    tw.dense.tick(t);
    if ((t - 20) % 3 == 0) tw.asleep.tick(t);
    tw.expect_same(2, "cycle " + std::to_string(t));
  }
  tw.asleep.settle();
  tw.expect_all_same("settled");
}

TEST(RouterSleep, StallSinkKeepsThePerCycleStallStream) {
  Twin tw(line(2, 0, 4), FlowControlKind::kPriorityFirst);
  tw.fill(1, 0, 0, 20);
  ASSERT_GT(tw.asleep.wake_of(1), 20u);
  // Attaching a stall listener settles and wakes every router; from
  // then on a memoised router replays on its own cycle again.
  StallLog log;
  tw.asleep.set_observer(&log);
  tw.expect_all_same("observer attached");
  for (NodeId r = 0; r < 2; ++r) EXPECT_LE(tw.asleep.wake_of(r), 20u);
  for (Cycle t = 20; t < 40; ++t) {
    tw.tick(t);
    EXPECT_EQ(tw.asleep.wake_of(1), t + 1);
  }
  const std::vector<obs::StallEvent> st = log.of(1, kPortWest);
  ASSERT_EQ(st.size(), 20u);
  for (std::size_t i = 0; i < st.size(); ++i) EXPECT_EQ(st[i].at, 20 + i);
  tw.expect_all_same("stalls observed");
  // A listener for other kinds only lets the router sleep.
  struct ArbitrationOnly final : obs::EventSink {
    [[nodiscard]] std::uint32_t interests() const override {
      return obs::event_bit(obs::EventKind::kArbitration);
    }
  } arb;
  tw.asleep.set_observer(&arb);
  tw.fill(1, 0, 40, 50);
  EXPECT_GT(tw.asleep.wake_of(1), 50u);
  tw.asleep.settle();
  tw.expect_all_same("stalls unobserved");
}

}  // namespace
}  // namespace annoc::noc
