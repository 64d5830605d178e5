#include "ocd/sim/knowledge.hpp"

#include <gtest/gtest.h>

#include "ocd/sim/views.hpp"

namespace ocd::sim {
namespace {

core::Instance two_vertex_instance() {
  Digraph g(2);
  g.add_arc(0, 1, 1);
  g.add_arc(1, 0, 1);
  core::Instance inst(std::move(g), 3);
  inst.add_have(0, 0);
  inst.add_have(0, 1);
  inst.add_want(1, 0);
  inst.add_want(1, 2);  // note: token 2 has no holder
  inst.add_have(1, 2);  // ...make it held so aggregates are clean
  return inst;
}

util::TokenMatrix have_matrix(const core::Instance& inst) {
  util::TokenMatrix m;
  m.reset(static_cast<std::size_t>(inst.num_vertices()),
          static_cast<std::size_t>(inst.num_tokens()));
  for (VertexId v = 0; v < inst.num_vertices(); ++v)
    m.assign_row(static_cast<std::size_t>(v), inst.have(v));
  return m;
}

TEST(Aggregates, CountsHoldersAndNeed) {
  const core::Instance inst = two_vertex_instance();
  const util::TokenMatrix possession = have_matrix(inst);
  const Aggregates agg = compute_aggregates(inst, possession);
  EXPECT_EQ(agg.holders[0], 1);
  EXPECT_EQ(agg.holders[1], 1);
  EXPECT_EQ(agg.holders[2], 1);
  EXPECT_EQ(agg.need[0], 1);  // vertex 1 wants 0, lacks it
  EXPECT_EQ(agg.need[1], 0);
  EXPECT_EQ(agg.need[2], 0);  // wanted but already held
}

TEST(Aggregates, NeedDropsAsPossessionGrows) {
  const core::Instance inst = two_vertex_instance();
  util::TokenMatrix possession = have_matrix(inst);
  possession.row(1).set(0);
  const Aggregates agg = compute_aggregates(inst, possession);
  EXPECT_EQ(agg.need[0], 0);
  EXPECT_EQ(agg.holders[0], 2);
}

TEST(Aggregates, ApplyDeliveryMatchesRecompute) {
  const core::Instance inst = two_vertex_instance();
  util::TokenMatrix possession = have_matrix(inst);
  Aggregates agg = compute_aggregates(inst, possession);

  // Vertex 1 gains tokens {0, 1}: 0 is wanted (need drops), 1 is not.
  const TokenSet fresh = TokenSet::of(3, {0, 1});
  possession.row(1) |= fresh;
  agg.apply_delivery(fresh, inst.want(1));

  const Aggregates recomputed = compute_aggregates(inst, possession);
  EXPECT_EQ(agg.holders, recomputed.holders);
  EXPECT_EQ(agg.need, recomputed.need);
}

TEST(SnapshotBuffer, ZeroStalenessReturnsLatest) {
  SnapshotBuffer buffer(0);
  util::TokenMatrix a;
  a.reset(1, 2);
  a.assign_row(0, TokenSet::of(2, {0}));
  util::TokenMatrix b;
  b.reset(1, 2);
  b.assign_row(0, TokenSet::of(2, {0, 1}));
  buffer.push(a);
  EXPECT_EQ(buffer.stale_view().row(0).count(), 1u);
  buffer.push(b);
  EXPECT_EQ(buffer.stale_view().row(0).count(), 2u);
}

TEST(SnapshotBuffer, StalenessLagsByK) {
  SnapshotBuffer buffer(2);
  util::TokenMatrix snap;
  snap.reset(1, 10);
  for (int i = 1; i <= 5; ++i) {
    snap.row(0).set(i - 1);  // snapshot i holds tokens {0..i-1}
    buffer.push(snap);
    // After pushing snapshot i, the stale view is snapshot max(1, i-2).
    const auto expect = static_cast<std::size_t>(std::max(1, i - 2));
    EXPECT_EQ(buffer.stale_view().row(0).count(), expect) << "i=" << i;
  }
}

TEST(SnapshotBuffer, EmptyBufferThrows) {
  SnapshotBuffer buffer(1);
  EXPECT_THROW((void)buffer.stale_view(), ContractViolation);
  EXPECT_THROW(SnapshotBuffer(-1), ContractViolation);
}

TEST(SnapshotBuffer, AliasedModeTracksLiveMatrixWithoutCopying) {
  SnapshotBuffer buffer(0);
  util::TokenMatrix live;
  live.reset(1, 4);
  buffer.alias_live(live);
  EXPECT_TRUE(buffer.aliased());
  buffer.push(live);
  EXPECT_EQ(&buffer.stale_view(), &live);  // aliases, never copies
  live.row(0).set(2);  // in-place mutation is visible through the view
  EXPECT_TRUE(buffer.stale_view().row(0).test(2));
}

TEST(SnapshotBuffer, AliasRequiresZeroStaleness) {
  SnapshotBuffer stale(1);
  util::TokenMatrix live;
  live.reset(1, 4);
  EXPECT_THROW(stale.alias_live(live), ContractViolation);
  // Pushing a different matrix than the bound one is a caller bug.
  SnapshotBuffer bound(0);
  bound.alias_live(live);
  util::TokenMatrix other;
  other.reset(1, 4);
  EXPECT_THROW(bound.push(other), ContractViolation);
}

TEST(SnapshotBuffer, CopyingModeIsUnaffectedByRecycling) {
  // Push more snapshots than the window holds; the recycled ring slots
  // must not leak stale contents into later views.
  SnapshotBuffer buffer(1);
  util::TokenMatrix snap;
  snap.reset(1, 64);
  for (int i = 1; i <= 6; ++i) {
    snap.row(0).set(i - 1);
    buffer.push(snap);
    const auto expect = static_cast<std::size_t>(std::max(1, i - 1));
    EXPECT_EQ(buffer.stale_view().row(0).count(), expect) << "i=" << i;
  }
}

TEST(StepView, AccessorsGatedByKnowledgeClass) {
  const core::Instance inst = two_vertex_instance();
  const util::TokenMatrix possession = have_matrix(inst);
  const Aggregates agg = compute_aggregates(inst, possession);

  const StepView local(inst, possession, possession, &agg,
                       KnowledgeClass::kLocalOnly, 0);
  EXPECT_NO_THROW((void)local.own_possession(0));
  EXPECT_NO_THROW((void)local.own_want(1));
  EXPECT_THROW((void)local.peer_across(0, 0), ContractViolation);
  EXPECT_THROW((void)local.aggregate_need(), ContractViolation);
  EXPECT_THROW((void)local.global_possession(), ContractViolation);

  const StepView peers(inst, possession, possession, &agg,
                       KnowledgeClass::kLocalPeers, 0);
  EXPECT_NO_THROW((void)peers.peer_across(0, 0));
  EXPECT_THROW((void)peers.aggregate_holders(), ContractViolation);

  const StepView aggregate(inst, possession, possession, &agg,
                           KnowledgeClass::kLocalAggregate, 0);
  EXPECT_NO_THROW((void)aggregate.peer_across(1, 0));
  EXPECT_NO_THROW((void)aggregate.aggregate_holders());
  EXPECT_THROW((void)aggregate.instance(), ContractViolation);

  const StepView global(inst, possession, possession, &agg,
                        KnowledgeClass::kGlobal, 0);
  EXPECT_NO_THROW((void)global.global_possession());
  EXPECT_NO_THROW((void)global.instance());
}

TEST(StepView, NullAggregatesTripOnAccessNotConstruction) {
  // Lazy materialization: the simulator passes nullptr for policies
  // below kLocalAggregate; touching the accessors must fail loudly.
  const core::Instance inst = two_vertex_instance();
  const util::TokenMatrix possession = have_matrix(inst);
  const StepView view(inst, possession, possession, nullptr,
                      KnowledgeClass::kGlobal, 0);
  EXPECT_THROW((void)view.aggregate_holders(), ContractViolation);
  EXPECT_THROW((void)view.aggregate_need(), ContractViolation);
  EXPECT_NO_THROW((void)view.global_possession());
}

TEST(StepView, PeerAccessRequiresAdjacency) {
  // The arc is the adjacency: either endpoint reads the other's stale
  // row across it, no other vertex may name it, and an arc id out of
  // range is refused rather than read.
  Digraph g(3);
  const ArcId a01 = g.add_arc(0, 1, 1);
  const ArcId a12 = g.add_arc(1, 2, 1);  // 2 is not adjacent to 0
  core::Instance inst(std::move(g), 8);
  util::TokenMatrix possession;
  possession.reset(3, 8);
  util::TokenMatrix stale;
  stale.reset(3, 8);
  for (std::size_t v = 0; v < 3; ++v) {
    possession.row(v).set(static_cast<TokenId>(v));
    possession.row(v).set(static_cast<TokenId>(v + 4));
    stale.row(v).set(static_cast<TokenId>(v));  // one step behind
  }
  const StepView view(inst, possession, stale, nullptr,
                      KnowledgeClass::kLocalPeers, 0);
  EXPECT_EQ(view.peer_across(0, a01), stale.row(1));
  EXPECT_EQ(view.peer_across(1, a01), stale.row(0));  // head reads tail
  EXPECT_EQ(view.peer_across(1, a12), stale.row(2));
  EXPECT_EQ(view.peer_across(2, a12), stale.row(1));
  EXPECT_THROW((void)view.peer_across(0, a12), ContractViolation);
  EXPECT_THROW((void)view.peer_across(2, a01), ContractViolation);
  EXPECT_THROW((void)view.peer_across(0, -1), ContractViolation);
  EXPECT_THROW((void)view.peer_across(1, inst.graph().num_arcs()),
               ContractViolation);

  const StepView local(inst, possession, stale, nullptr,
                       KnowledgeClass::kLocalOnly, 0);
  EXPECT_THROW((void)local.peer_across(0, a01), ContractViolation);
  EXPECT_THROW((void)local.peer_across(1, a01), ContractViolation);
}

TEST(StepView, ToStringOfKnowledgeClasses) {
  EXPECT_STREQ(to_string(KnowledgeClass::kLocalOnly), "local-only");
  EXPECT_STREQ(to_string(KnowledgeClass::kLocalPeers), "local-peers");
  EXPECT_STREQ(to_string(KnowledgeClass::kLocalAggregate), "local-aggregate");
  EXPECT_STREQ(to_string(KnowledgeClass::kGlobal), "global");
}

}  // namespace
}  // namespace ocd::sim
