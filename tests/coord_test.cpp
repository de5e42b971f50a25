#include <gtest/gtest.h>

#include <memory>

#include "coord/registry.hpp"
#include "sim/env.hpp"

namespace mrp::coord {
namespace {

class Dummy : public runtime::Node {
 public:
  using runtime::Node::Node;
  void on_message(ProcessId, const runtime::Message& m) override {
    if (m.kind() == kMsgViewChange) {
      views.push_back(runtime::msg_cast<MsgViewChange>(m).view);
    } else if (m.kind() == kMsgSchemaChange) {
      const auto& s = runtime::msg_cast<MsgSchemaChange>(m);
      schemas.emplace_back(s.key, s.entry);
    } else if (m.kind() == kMsgSubChange) {
      const auto& s = runtime::msg_cast<MsgSubChange>(m);
      subs.push_back(s);
    } else if (m.kind() == kMsgAcceptorPrep) {
      preps.push_back(runtime::msg_cast<MsgAcceptorPrep>(m));
    }
  }
  std::vector<RingView> views;
  std::vector<std::pair<std::string, SchemaEntry>> schemas;
  std::vector<MsgSubChange> subs;
  std::vector<MsgAcceptorPrep> preps;
};

class RegistryTest : public ::testing::Test {
 protected:
  void spawn(std::initializer_list<ProcessId> pids) {
    for (ProcessId p : pids) env_.spawn<Dummy>(p);
  }
  RingConfig config3() {
    RingConfig c;
    c.ring = 0;
    c.order = {1, 2, 3};
    c.acceptors = {1, 2, 3};
    return c;
  }

  sim::Env env_;
  Registry reg_{env_.oracle_runtime(kRegistrySender), 50 * kMillisecond};
};

TEST_F(RegistryTest, InitialViewIncludesAllConfiguredMembers) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  const RingView& v = reg_.current_view(0);
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.coordinator, 1);
  EXPECT_EQ(v.quorum(), 2u);
}

TEST_F(RegistryTest, SuccessorWraps) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  const RingView& v = reg_.current_view(0);
  EXPECT_EQ(v.successor(1), 2);
  EXPECT_EQ(v.successor(2), 3);
  EXPECT_EQ(v.successor(3), 1);
}

TEST_F(RegistryTest, CrashDetectedAndViewChanges) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  env_.crash(2);
  env_.sim().run_for(from_millis(120));
  const RingView& v = reg_.current_view(0);
  EXPECT_EQ(v.members.size(), 2u);
  EXPECT_FALSE(v.contains(2));
  EXPECT_GT(v.epoch, 1u);
  EXPECT_EQ(v.successor(1), 3);
}

TEST_F(RegistryTest, CoordinatorElectionSkipsDeadAcceptor) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  env_.crash(1);
  env_.sim().run_for(from_millis(120));
  EXPECT_EQ(reg_.current_view(0).coordinator, 2);
}

TEST_F(RegistryTest, CoordinatorIsSticky) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  env_.crash(1);
  env_.sim().run_for(from_millis(120));
  EXPECT_EQ(reg_.current_view(0).coordinator, 2);
  env_.recover(1);
  env_.sim().run_for(from_millis(120));
  // 1 rejoined but 2 keeps the coordinatorship.
  EXPECT_EQ(reg_.current_view(0).coordinator, 2);
  EXPECT_TRUE(reg_.current_view(0).contains(1));
}

TEST_F(RegistryTest, EpochsIncreaseMonotonically) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  std::uint64_t last = reg_.current_view(0).epoch;
  for (int i = 0; i < 3; ++i) {
    env_.crash(3);
    env_.sim().run_for(from_millis(120));
    EXPECT_GT(reg_.current_view(0).epoch, last);
    last = reg_.current_view(0).epoch;
    env_.recover(3);
    env_.sim().run_for(from_millis(120));
    EXPECT_GT(reg_.current_view(0).epoch, last);
    last = reg_.current_view(0).epoch;
  }
}

TEST_F(RegistryTest, WatchersAreNotifiedOfChanges) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  reg_.watch_ring(0, 3);
  env_.sim().run_for(from_millis(10));
  auto* d = env_.process_as<Dummy>(3);
  ASSERT_EQ(d->views.size(), 1u);  // initial view on watch
  env_.crash(2);
  env_.sim().run_for(from_millis(200));
  ASSERT_GE(d->views.size(), 2u);
  EXPECT_FALSE(d->views.back().contains(2));
}

TEST_F(RegistryTest, RecoveredWatcherIsRenotified) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  reg_.watch_ring(0, 3);
  env_.sim().run_for(from_millis(10));
  env_.crash(3);
  env_.sim().run_for(from_millis(200));
  env_.recover(3);
  env_.sim().run_for(from_millis(200));
  auto* d = env_.process_as<Dummy>(3);  // fresh incarnation
  ASSERT_GE(d->views.size(), 1u);
  EXPECT_TRUE(d->views.back().contains(3));
}

TEST_F(RegistryTest, SubscriptionsAndPartitions) {
  spawn({1, 2, 3, 4});
  reg_.set_subscriptions(1, {0, 7});
  reg_.set_subscriptions(2, {0, 7});
  reg_.set_subscriptions(3, {7});
  reg_.set_subscriptions(4, {0, 7});
  auto subs = reg_.subscribers(7);
  EXPECT_EQ(subs.size(), 4u);
  auto peers = reg_.partition_peers(1);
  EXPECT_EQ(peers, (std::vector<ProcessId>{1, 2, 4}));
  EXPECT_EQ(reg_.partition_peers(3), std::vector<ProcessId>{3});
}

TEST_F(RegistryTest, MetadataRoundtrip) {
  reg_.set_meta("schema", "hash:3");
  EXPECT_EQ(reg_.get_meta("schema"), "hash:3");
  EXPECT_EQ(reg_.get_meta("absent"), "");
}

TEST_F(RegistryTest, QuorumBasedOnConfiguredAcceptors) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  env_.crash(2);
  env_.crash(3);
  env_.sim().run_for(from_millis(120));
  // One alive acceptor out of three configured: quorum stays 2.
  EXPECT_EQ(reg_.current_view(0).quorum(), 2u);
  EXPECT_EQ(reg_.current_view(0).acceptors.size(), 1u);
}

TEST_F(RegistryTest, VersionedSchemaPublishBumpsAndNotifiesWatchers) {
  spawn({1, 2});
  EXPECT_EQ(reg_.schema("store").version, 0u);  // never published

  EXPECT_EQ(reg_.publish_schema("store", "hash:3"), 1u);
  EXPECT_EQ(reg_.schema("store").version, 1u);
  EXPECT_EQ(reg_.schema("store").encoded, "hash:3");

  // Watching with an existing entry delivers it immediately.
  reg_.watch_schema("store", 1);
  env_.sim().run_for(from_millis(10));
  auto* d1 = env_.process_as<Dummy>(1);
  ASSERT_EQ(d1->schemas.size(), 1u);
  EXPECT_EQ(d1->schemas[0].first, "store");
  EXPECT_EQ(d1->schemas[0].second.version, 1u);

  // Watching a never-published key delivers nothing until a publish.
  reg_.watch_schema("other", 2);
  env_.sim().run_for(from_millis(10));
  auto* d2 = env_.process_as<Dummy>(2);
  EXPECT_TRUE(d2->schemas.empty());

  EXPECT_EQ(reg_.publish_schema("store", "range:00"), 2u);
  EXPECT_EQ(reg_.publish_schema("other", "x"), 1u);  // versions are per key
  env_.sim().run_for(from_millis(10));
  ASSERT_EQ(d1->schemas.size(), 2u);
  EXPECT_EQ(d1->schemas[1].second.version, 2u);
  EXPECT_EQ(d1->schemas[1].second.encoded, "range:00");
  ASSERT_EQ(d2->schemas.size(), 1u);
  EXPECT_EQ(d2->schemas[0].first, "other");
}

TEST_F(RegistryTest, SubscriptionEpochsBumpAndNotifyWatchers) {
  spawn({1, 2, 9});
  reg_.watch_subscriptions(9);
  EXPECT_EQ(reg_.subscription_epoch(1), 0u);

  reg_.set_subscriptions(1, {3, 0});
  reg_.set_subscriptions(2, {0});
  reg_.set_subscriptions(1, {0, 3, 5});
  EXPECT_EQ(reg_.subscription_epoch(1), 2u);
  EXPECT_EQ(reg_.subscription_epoch(2), 1u);

  env_.sim().run_for(from_millis(10));
  auto* w = env_.process_as<Dummy>(9);
  ASSERT_EQ(w->subs.size(), 3u);
  EXPECT_EQ(w->subs[0].process, 1);
  EXPECT_EQ(w->subs[0].epoch, 1u);
  EXPECT_EQ(w->subs[0].groups, (std::vector<GroupId>{0, 3}));  // sorted
  EXPECT_EQ(w->subs[2].process, 1);
  EXPECT_EQ(w->subs[2].epoch, 2u);
  EXPECT_EQ(w->subs[2].groups, (std::vector<GroupId>{0, 3, 5}));
}

TEST_F(RegistryTest, DynamicMemberJoinsRingOrderAndView) {
  spawn({1, 2, 3, 4});
  reg_.create_ring(config3());
  reg_.watch_ring(0, 1);
  env_.sim().run_for(from_millis(10));
  const std::uint64_t epoch_before = reg_.current_view(0).epoch;

  reg_.add_ring_member(0, 4);
  const RingView& v = reg_.current_view(0);
  EXPECT_GT(v.epoch, epoch_before);
  EXPECT_TRUE(v.contains(4));
  EXPECT_FALSE(v.is_acceptor(4));  // dynamic members are never acceptors
  EXPECT_EQ(v.total_acceptors, 3u);  // quorum basis unchanged
  EXPECT_EQ(v.successor(3), 4);      // appended at the ring tail
  EXPECT_EQ(v.successor(4), 1);      // wraps

  // Watchers hear about the membership change.
  env_.sim().run_for(from_millis(10));
  auto* d = env_.process_as<Dummy>(1);
  ASSERT_GE(d->views.size(), 2u);
  EXPECT_TRUE(d->views.back().contains(4));

  // And a dynamic member can leave again.
  reg_.remove_ring_member(0, 4);
  EXPECT_FALSE(reg_.current_view(0).contains(4));
  EXPECT_EQ(reg_.config(0).order.size(), 3u);
}

// --- acceptor-set reconfiguration -------------------------------------------
// The Dummy process cannot run the ring-level catch-up protocol, so these
// tests drive the registry's half directly: observe the MsgAcceptorPrep,
// then confirm with acceptor_synced as the joiner would.

TEST_F(RegistryTest, InitialViewCarriesAcceptorBasis) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  const RingView& v = reg_.current_view(0);
  EXPECT_EQ(v.acceptor_view, 1u);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 2, 3}));
}

TEST_F(RegistryTest, AddAcceptorCatchesUpBeforeActivation) {
  spawn({1, 2, 3, 4});
  reg_.create_ring(config3());
  const std::uint64_t aview_before = reg_.acceptor_view(0);

  reg_.add_acceptor(0, 4);
  env_.sim().run_for(from_millis(10));
  // Joined as a member immediately, but the quorum basis is untouched until
  // the catch-up completes.
  EXPECT_TRUE(reg_.current_view(0).contains(4));
  EXPECT_EQ(reg_.current_view(0).total_acceptors, 3u);
  EXPECT_EQ(reg_.acceptor_view(0), aview_before);
  EXPECT_TRUE(reg_.change_pending(0));

  auto* joiner = env_.process_as<Dummy>(4);
  ASSERT_GE(joiner->preps.size(), 1u);
  const MsgAcceptorPrep& prep = joiner->preps.back();
  EXPECT_EQ(prep.ring, 0);
  EXPECT_EQ(prep.sources, (std::vector<ProcessId>{1, 2, 3}));

  reg_.acceptor_synced(0, 4, prep.seq);
  const RingView& v = reg_.current_view(0);
  EXPECT_FALSE(reg_.change_pending(0));
  EXPECT_EQ(v.total_acceptors, 4u);
  EXPECT_TRUE(v.is_acceptor(4));
  EXPECT_GT(v.acceptor_view, aview_before);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 2, 3, 4}));
}

TEST_F(RegistryTest, RemoveAcceptorActivatesImmediately) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  const std::uint64_t aview_before = reg_.acceptor_view(0);
  const std::uint64_t epoch_before = reg_.current_view(0).epoch;

  // Single-step shrink is intersection-safe: no catch-up needed.
  reg_.remove_acceptor(0, 3);
  const RingView& v = reg_.current_view(0);
  EXPECT_FALSE(reg_.change_pending(0));
  EXPECT_EQ(v.total_acceptors, 2u);
  EXPECT_FALSE(v.is_acceptor(3));
  EXPECT_TRUE(v.contains(3));  // demoted to learner, still a member
  EXPECT_GT(v.acceptor_view, aview_before);
  EXPECT_GT(v.epoch, epoch_before);
}

TEST_F(RegistryTest, ReplaceAcceptorSyncsFromAliveUnionThenDropsDead) {
  spawn({1, 2, 3, 4});
  reg_.create_ring(config3());
  env_.crash(3);
  env_.sim().run_for(from_millis(120));

  reg_.replace_acceptor(0, 3, 4);
  env_.sim().run_for(from_millis(10));
  EXPECT_TRUE(reg_.change_pending(0));
  auto* joiner = env_.process_as<Dummy>(4);
  ASSERT_GE(joiner->preps.size(), 1u);
  // The union excludes the dead acceptor and the joiner itself.
  EXPECT_EQ(joiner->preps.back().sources, (std::vector<ProcessId>{1, 2}));

  reg_.acceptor_synced(0, 4, joiner->preps.back().seq);
  const RingView& v = reg_.current_view(0);
  EXPECT_EQ(v.total_acceptors, 3u);
  EXPECT_TRUE(v.is_acceptor(4));
  EXPECT_FALSE(v.contains(3));  // replaced acceptor leaves the ring entirely
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 2, 4}));
}

TEST_F(RegistryTest, JoinerDeathAbortsPendingChange) {
  spawn({1, 2, 3, 4});
  reg_.create_ring(config3());
  reg_.add_acceptor(0, 4);
  EXPECT_TRUE(reg_.change_pending(0));
  env_.crash(4);
  env_.sim().run_for(from_millis(200));
  EXPECT_FALSE(reg_.change_pending(0));
  EXPECT_EQ(reg_.current_view(0).total_acceptors, 3u);
}

TEST_F(RegistryTest, SourceDeathRestartsChangeWithFreshSources) {
  spawn({1, 2, 3, 4});
  reg_.create_ring(config3());
  reg_.add_acceptor(0, 4);
  env_.sim().run_for(from_millis(10));
  auto* joiner = env_.process_as<Dummy>(4);
  ASSERT_GE(joiner->preps.size(), 1u);
  const std::uint64_t seq1 = joiner->preps.back().seq;

  env_.crash(2);
  env_.sim().run_for(from_millis(200));
  EXPECT_TRUE(reg_.change_pending(0));
  const MsgAcceptorPrep& prep2 = joiner->preps.back();
  EXPECT_GT(prep2.seq, seq1);
  EXPECT_EQ(prep2.sources, (std::vector<ProcessId>{1, 3}));

  // A stale confirmation (from the aborted attempt) must be ignored.
  reg_.acceptor_synced(0, 4, seq1);
  EXPECT_TRUE(reg_.change_pending(0));
  reg_.acceptor_synced(0, 4, prep2.seq);
  EXPECT_FALSE(reg_.change_pending(0));
  EXPECT_EQ(reg_.current_view(0).total_acceptors, 4u);
}

TEST_F(RegistryTest, RemoveDemotesStickyCoordinator) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  EXPECT_EQ(reg_.current_view(0).coordinator, 1);
  reg_.remove_acceptor(0, 1);
  // The sticky coordinator left the quorum basis: leadership must move.
  EXPECT_EQ(reg_.current_view(0).coordinator, 2);
}

TEST_F(RegistryTest, AutoHealDraftsStandbyAfterSuspectGrace) {
  spawn({1, 2, 3, 4});
  RingConfig c = config3();
  c.fd.auto_heal = true;
  c.fd.suspect_grace = 150 * kMillisecond;
  reg_.create_ring(c);
  reg_.add_ring_member(0, 4);  // standby rides along as a learner
  reg_.add_standby(0, 4);

  env_.crash(3);
  env_.sim().run_for(from_millis(100));
  EXPECT_FALSE(reg_.change_pending(0)) << "drafted before the grace elapsed";
  env_.sim().run_for(from_millis(200));
  EXPECT_TRUE(reg_.change_pending(0));
  EXPECT_TRUE(reg_.standbys(0).empty());  // draftee left the pool

  auto* joiner = env_.process_as<Dummy>(4);
  ASSERT_GE(joiner->preps.size(), 1u);
  reg_.acceptor_synced(0, 4, joiner->preps.back().seq);
  EXPECT_EQ(reg_.heal_count(), 1u);
  const RingView& v = reg_.current_view(0);
  EXPECT_TRUE(v.is_acceptor(4));
  EXPECT_FALSE(v.contains(3));
}

TEST_F(RegistryTest, RecoveryWithinGraceCancelsSuspicion) {
  spawn({1, 2, 3, 4});
  RingConfig c = config3();
  c.fd.auto_heal = true;
  c.fd.suspect_grace = 300 * kMillisecond;
  reg_.create_ring(c);
  reg_.add_standby(0, 4);

  env_.crash(3);
  env_.sim().run_for(from_millis(150));
  env_.recover(3);
  env_.sim().run_for(from_millis(400));
  EXPECT_FALSE(reg_.change_pending(0));
  EXPECT_EQ(reg_.standbys(0), std::vector<ProcessId>{4});
  EXPECT_TRUE(reg_.current_view(0).is_acceptor(3));
}

TEST_F(RegistryTest, PerRingFdIntervalWithJitterStillDetectsCrashes) {
  spawn({1, 2, 3});
  RingConfig c = config3();
  c.fd.interval = 20 * kMillisecond;  // faster than the registry-wide 50ms
  c.fd.jitter = 0.5;                  // deterministic decoherence
  reg_.create_ring(c);
  env_.crash(2);
  env_.sim().run_for(from_millis(60));
  EXPECT_FALSE(reg_.current_view(0).contains(2));
}

TEST_F(RegistryTest, UnwatchStopsNotifications) {
  spawn({1, 2, 3});
  reg_.create_ring(config3());
  reg_.watch_ring(0, 3);
  env_.sim().run_for(from_millis(10));
  auto* d = env_.process_as<Dummy>(3);
  const std::size_t seen = d->views.size();
  reg_.unwatch_ring(0, 3);
  env_.crash(2);
  env_.sim().run_for(from_millis(300));
  EXPECT_EQ(d->views.size(), seen) << "unwatched process was still notified";
}

}  // namespace
}  // namespace mrp::coord
