// Acceptor-set reconfiguration: quorum-safety properties (combinatorial
// model checks over vote-mask majorities) plus end-to-end sim coverage —
// decided values survive any add/remove/replace sequence under live load,
// and no two nodes ever observe diverging delivery orders.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "paxos/paxos.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

// --- combinatorial model ----------------------------------------------------
// Bases are bitmasks over at most 12 processes; a quorum of basis B is any
// subset of B with |subset| >= |B|/2 + 1.

int popcount(unsigned x) { return __builtin_popcount(x); }

std::vector<unsigned> majorities(unsigned basis) {
  const int n = popcount(basis);
  const int q = n / 2 + 1;
  std::vector<unsigned> out;
  for (unsigned s = basis;; s = (s - 1) & basis) {
    if (popcount(s) >= q) out.push_back(s);
    if (s == 0) break;
  }
  return out;
}

bool all_majorities_intersect(unsigned a, unsigned b) {
  for (unsigned qa : majorities(a)) {
    for (unsigned qb : majorities(b)) {
      if ((qa & qb) == 0) return false;
    }
  }
  return true;
}

TEST(QuorumSafetyProperty, SingleStepAddAndRemovePreserveIntersection) {
  // The registry activates add (n -> n+1) and remove (n -> n-1) without any
  // catch-up barrier beyond the joiner's log sync; that is sound only if
  // every old-basis majority intersects every new-basis majority, so a value
  // decided under either basis is seen by any later Phase 1 under the other.
  for (int n = 1; n <= 7; ++n) {
    const unsigned basis = (1u << n) - 1;
    // Add each possible new member.
    const unsigned grown = basis | (1u << n);
    EXPECT_TRUE(all_majorities_intersect(basis, grown)) << "add at n=" << n;
    // Remove each member.
    for (int r = 0; r < n && n > 1; ++r) {
      const unsigned shrunk = basis & ~(1u << r);
      EXPECT_TRUE(all_majorities_intersect(basis, shrunk))
          << "remove bit " << r << " at n=" << n;
    }
  }
}

TEST(QuorumSafetyProperty, ReplaceAloneBreaksIntersection) {
  // The counterexample that forces the union-sync design: {A,B,C} ->
  // {A,B,D} admits the disjoint majorities {A,C} (old) and {B,D} (new).
  // A naive swap could therefore decide two different values for one
  // instance; the registry must not activate a replace on intersection
  // grounds alone.
  const unsigned old_basis = 0b0111;  // A=0, B=1, C=2
  const unsigned new_basis = 0b1011;  // C replaced by D=3
  EXPECT_FALSE(all_majorities_intersect(old_basis, new_basis));
}

TEST(QuorumSafetyProperty, SourceUnionCoversEveryDecidedInstance) {
  // What makes replace safe instead: the registry requires
  // |sources| + quorum > n, where the sources are the alive acceptors minus
  // the one being replaced (its log leaves the basis at activation, so it
  // must not count even if it is still up), and the joiner drains the union
  // of exactly those source logs. Then every old-basis majority (any set
  // that could have decided an instance) intersects the source set, so the
  // union holds at least one record of every decided instance. Check
  // exhaustively for all bases and source-sets up to n=7.
  for (int n = 1; n <= 7; ++n) {
    const unsigned basis = (1u << n) - 1;
    const int q = n / 2 + 1;
    for (unsigned sources = 0; sources <= basis; ++sources) {
      if ((sources & basis) != sources) continue;
      const bool precondition = popcount(sources) + q > n;
      bool covered = true;  // every majority intersects `sources`
      for (unsigned m : majorities(basis)) {
        if ((m & sources) == 0) covered = false;
      }
      if (precondition) {
        EXPECT_TRUE(covered) << "n=" << n << " sources=" << sources;
      } else {
        // The precondition is also tight: below it some majority holds no
        // source, i.e. a decided instance may exist the joiner never sees.
        EXPECT_FALSE(covered) << "n=" << n << " sources=" << sources;
      }
    }
  }
}

TEST(QuorumSafetyProperty, VoteMasksFromDifferentBasesNeverMix) {
  // Positional vote bits: acceptor X's bit index differs between bases, so
  // counting a mask minted under basis {1,2,3} against basis {1,2,4} could
  // fabricate a quorum. The handlers fence on acceptor_view; this model
  // check documents why: the same mask value means different acceptor sets.
  // Mask 0b101 under {1,2,3} = {1,3}; under {1,2,4} = {1,4}. If 3 voted but
  // 4 did not, treating the mask as valid under the new basis invents 4's
  // vote.
  EXPECT_TRUE(paxos::is_quorum(0b101, 3));
  EXPECT_TRUE(paxos::is_quorum(0b101, 3));  // same bits, either basis: the
  // mask itself cannot tell — only the aview fence can.
}

// --- end-to-end: reconfiguration under live load ----------------------------

using Sink = std::function<void(ProcessId, GroupId, InstanceId, const Payload&)>;

class TestNode : public multiring::MultiRingNode {
 public:
  TestNode(runtime::Runtime& rt, coord::Registry* reg,
           multiring::NodeConfig cfg, std::shared_ptr<Sink> sink)
      : MultiRingNode(rt, reg, std::move(cfg)) {
    set_deliver([this, sink](GroupId g, InstanceId i, const Payload& p) {
      (*sink)(this->id(), g, i, p);
    });
  }
};

class ReconfigTest : public ::testing::Test {
 protected:
  /// `acceptors` acceptor-learners plus `learners` learner-only members.
  void build(int acceptors, int learners, coord::FdParams fd = {},
             std::vector<ProcessId> standbys = {},
             ringpaxos::RingParams params = {}) {
    n_total_ = acceptors + learners;
    coord::RingConfig cfg;
    cfg.ring = 0;
    cfg.fd = fd;
    cfg.standbys = std::move(standbys);
    for (int i = 1; i <= n_total_; ++i) {
      cfg.order.push_back(i);
      if (i <= acceptors) cfg.acceptors.insert(i);
    }
    registry_->create_ring(cfg);
    multiring::NodeConfig node_cfg;
    node_cfg.rings.push_back(multiring::RingSub{0, params, true});
    for (int i = 1; i <= n_total_; ++i) {
      env_.spawn<TestNode>(i, registry_.get(), node_cfg, sink_);
    }
    env_.sim().run_for(from_millis(10));
  }

  TestNode* node(ProcessId id) { return env_.process_as<TestNode>(id); }

  void send_batch(ProcessId via, int count) {
    for (int i = 0; i < count; ++i) {
      node(via)->multicast(0, Payload("v" + std::to_string(sent_++)));
    }
  }

  std::vector<std::string> delivered_seq(ProcessId n) {
    std::vector<std::string> out;
    for (auto& [node_id, payload] : deliveries_) {
      if (node_id == n) out.push_back(payload);
    }
    return out;
  }

  /// Every sent value delivered exactly once at `n`, and delivery orders of
  /// all listed nodes are identical (no divergence).
  void expect_complete_and_consistent(std::initializer_list<ProcessId> nodes) {
    const std::vector<std::string> ref = delivered_seq(*nodes.begin());
    std::set<std::string> ref_set(ref.begin(), ref.end());
    EXPECT_EQ(ref.size(), ref_set.size()) << "duplicate delivery";
    for (int i = 0; i < sent_; ++i) {
      EXPECT_TRUE(ref_set.count("v" + std::to_string(i)))
          << "lost v" << i << " at node " << *nodes.begin();
    }
    for (ProcessId n : nodes) {
      EXPECT_EQ(delivered_seq(n), ref) << "node " << n << " diverged";
    }
  }

  int n_total_ = 0;
  int sent_ = 0;
  sim::Env env_{777};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  std::vector<std::pair<ProcessId, std::string>> deliveries_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId, InstanceId, const Payload& p) {
        deliveries_.emplace_back(n, p.as_string());
      });
};

TEST_F(ReconfigTest, AddAcceptorUnderLoad) {
  build(3, 1);  // node 4 is a learner, about to be promoted
  send_batch(1, 20);
  env_.sim().run_for(from_millis(300));
  registry_->add_acceptor(0, 4);
  send_batch(2, 20);  // load continues through the catch-up window
  env_.sim().run_for(from_seconds(2));
  EXPECT_FALSE(registry_->change_pending(0));
  EXPECT_EQ(registry_->current_view(0).total_acceptors, 4u);
  EXPECT_TRUE(node(4)->handler(0)->is_acceptor());
  ASSERT_NE(node(4)->handler(0)->log(), nullptr);
  send_batch(4, 10);  // the promoted acceptor proposes too
  env_.sim().run_for(from_seconds(2));
  expect_complete_and_consistent({1, 2, 3, 4});
}

TEST_F(ReconfigTest, RemoveAcceptorUnderLoad) {
  build(3, 0);
  send_batch(1, 15);
  env_.sim().run_for(from_millis(300));
  registry_->remove_acceptor(0, 3);
  send_batch(1, 15);
  env_.sim().run_for(from_seconds(2));
  EXPECT_EQ(registry_->current_view(0).total_acceptors, 2u);
  EXPECT_FALSE(node(3)->handler(0)->is_acceptor());
  // The demoted acceptor keeps delivering as a learner.
  expect_complete_and_consistent({1, 2, 3});
}

TEST_F(ReconfigTest, ReplaceDeadAcceptorRestoresFullQuorum) {
  build(3, 1);
  send_batch(1, 20);
  env_.sim().run_for(from_millis(300));
  env_.crash(3);  // permanent
  env_.sim().run_for(from_millis(200));
  send_batch(1, 10);  // ring runs degraded on quorum {1,2}
  env_.sim().run_for(from_millis(500));
  registry_->replace_acceptor(0, 3, 4);
  env_.sim().run_for(from_seconds(2));
  EXPECT_FALSE(registry_->change_pending(0));
  const coord::RingView& v = registry_->current_view(0);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 2, 4}));
  EXPECT_FALSE(v.contains(3));
  EXPECT_TRUE(node(4)->handler(0)->is_acceptor());
  send_batch(2, 10);
  env_.sim().run_for(from_seconds(2));
  // Survivors agree on the full history — including values decided under
  // the old basis before the crash (caught up from the union of alive logs).
  expect_complete_and_consistent({1, 2, 4});
}

TEST_F(ReconfigTest, ReplaceAliveAcceptorUnderLoad) {
  // Planned decommission: the replaced acceptor is still up. Its log is
  // excluded from the catch-up sources (it leaves the basis), so the
  // remaining alive acceptors must cover every decided instance on their
  // own — here {1,2} do, and the full history survives the swap.
  build(3, 1);
  send_batch(1, 20);
  env_.sim().run_for(from_millis(300));
  registry_->replace_acceptor(0, 3, 4);  // 3 is alive throughout
  send_batch(2, 10);
  env_.sim().run_for(from_seconds(2));
  EXPECT_FALSE(registry_->change_pending(0));
  const coord::RingView& v = registry_->current_view(0);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 2, 4}));
  EXPECT_TRUE(node(4)->handler(0)->is_acceptor());
  send_batch(1, 10);
  env_.sim().run_for(from_seconds(2));
  expect_complete_and_consistent({1, 2, 4});
}

TEST_F(ReconfigTest, ReplaceAliveAcceptorRefusedWhenSourcesInsufficient) {
  // Regression: the safety gate must count catch-up SOURCES, not alive
  // acceptors. With 2 dead and the still-alive 3 being replaced, only
  // {1} can serve the joiner — a decided instance whose quorum was {2,3}
  // would be lost. Counting 3 as "alive" used to let this through.
  build(3, 1);
  send_batch(1, 10);
  env_.sim().run_for(from_millis(300));
  env_.crash(2);
  env_.sim().run_for(from_millis(100));
  EXPECT_DEATH(registry_->replace_acceptor(0, 3, 4),
               "too many dead acceptors");
}

TEST_F(ReconfigTest, AllSourcesDeadMidCatchupAbandonsChange) {
  // Regression: a pure add whose every catch-up source dies mid-sync must
  // abandon the change on the next FD tick — not abort the registry via
  // begin_change's non-empty-sources check.
  build(3, 1);
  send_batch(1, 10);
  env_.sim().run_for(from_millis(300));
  registry_->add_acceptor(0, 4);
  EXPECT_TRUE(registry_->change_pending(0));
  env_.crash(1);
  env_.crash(2);
  env_.crash(3);
  env_.sim().run_for(from_seconds(1));  // FD notices the dead sources
  EXPECT_FALSE(registry_->change_pending(0));
  EXPECT_EQ(registry_->current_view(0).total_acceptors, 3u);  // unchanged
}

TEST_F(ReconfigTest, CheckNowPollsCustomFdRings) {
  // Regression: a forced check must also poll rings that run their own
  // failure-detector timer chain (custom interval/jitter), not only the
  // rings on the registry-wide tick.
  coord::FdParams fd;
  fd.interval = from_seconds(10);  // first dedicated tick far in the future
  build(3, 0, fd);
  env_.crash(3);
  env_.sim().run_for(from_millis(100));
  EXPECT_TRUE(registry_->current_view(0).contains(3));  // not yet noticed
  registry_->check_now();
  EXPECT_FALSE(registry_->current_view(0).contains(3));
}

TEST_F(ReconfigTest, ChangeSequenceLosesNothing) {
  build(3, 2);  // learners 4 and 5
  send_batch(1, 10);
  env_.sim().run_for(from_millis(300));

  registry_->add_acceptor(0, 4);  // {1,2,3} -> {1,2,3,4}
  send_batch(2, 10);
  env_.sim().run_for(from_seconds(2));
  ASSERT_FALSE(registry_->change_pending(0));

  env_.crash(2);
  env_.sim().run_for(from_millis(200));
  registry_->replace_acceptor(0, 2, 5);  // {1,2,3,4} -> {1,3,4,5}
  send_batch(3, 10);
  env_.sim().run_for(from_seconds(2));
  ASSERT_FALSE(registry_->change_pending(0));

  registry_->remove_acceptor(0, 1);  // {1,3,4,5} -> {3,4,5}; 1 demoted
  send_batch(4, 10);
  env_.sim().run_for(from_seconds(3));

  const coord::RingView& v = registry_->current_view(0);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{3, 4, 5}));
  expect_complete_and_consistent({1, 3, 4, 5});
}

TEST_F(ReconfigTest, AutoHealReplacesKilledAcceptorEndToEnd) {
  coord::FdParams fd;
  fd.auto_heal = true;
  fd.suspect_grace = 200 * kMillisecond;
  fd.jitter = 0.3;  // jittered suspicion, still deterministic under the seed
  build(3, 1, fd, {4});  // node 4: learner member + standby
  send_batch(1, 20);
  env_.sim().run_for(from_millis(300));

  env_.crash(2);  // permanent kill of a non-coordinator acceptor
  send_batch(1, 10);
  env_.sim().run_for(from_seconds(3));  // FD suspects, drafts 4, heals

  EXPECT_EQ(registry_->heal_count(), 1u);
  const coord::RingView& v = registry_->current_view(0);
  EXPECT_EQ(v.configured_acceptors, (std::vector<ProcessId>{1, 3, 4}));
  EXPECT_FALSE(v.contains(2));
  EXPECT_TRUE(node(4)->handler(0)->is_acceptor());

  send_batch(3, 10);
  env_.sim().run_for(from_seconds(2));
  expect_complete_and_consistent({1, 3, 4});
}

TEST_F(ReconfigTest, HealKeepsValuesQueuedAtTheCoordinator) {
  // The heal lands while the ring is stalled on the dead acceptor, so the
  // coordinator's window is full and the values sent meanwhile wait in its
  // queue. The basis change re-elects coordinator 1, which keeps that queue:
  // the values are decided right after the new Phase 1, not when their
  // proposers re-send them a proposal_retry (1 s) later.
  coord::FdParams fd;
  fd.auto_heal = true;
  fd.suspect_grace = 200 * kMillisecond;
  ringpaxos::RingParams params;
  params.window = 4;
  params.min_window = 4;
  build(3, 1, fd, {4}, params);
  send_batch(1, 20);
  env_.sim().run_for(from_millis(300));
  ASSERT_EQ(delivered_seq(3).size(), 20u);

  env_.crash(2);
  env_.sim().run_for(from_millis(1));
  send_batch(1, 30);
  send_batch(3, 30);
  const TimeNs crash_at = env_.sim().now();
  while (registry_->heal_count() == 0 &&
         env_.sim().now() < crash_at + from_seconds(2)) {
    env_.sim().run_for(from_millis(1));
  }
  ASSERT_EQ(registry_->heal_count(), 1u);
  EXPECT_LT(env_.sim().now(), crash_at + from_millis(500));
  env_.sim().run_for(from_millis(200));
  EXPECT_EQ(delivered_seq(3).size(), 80u)
      << "values queued at the coordinator waited for their proposers' retry";

  env_.sim().run_for(from_seconds(2));
  expect_complete_and_consistent({1, 3, 4});
}

TEST_F(ReconfigTest, HealWaitsWhenNoStandbyAvailable) {
  coord::FdParams fd;
  fd.auto_heal = true;
  fd.suspect_grace = 100 * kMillisecond;
  build(3, 0, fd);  // no standby pool
  env_.crash(3);
  env_.sim().run_for(from_seconds(1));
  EXPECT_EQ(registry_->heal_count(), 0u);
  EXPECT_FALSE(registry_->change_pending(0));
  // The ring still makes progress on the surviving majority.
  send_batch(1, 10);
  env_.sim().run_for(from_seconds(1));
  expect_complete_and_consistent({1, 2});
}

}  // namespace
}  // namespace mrp
