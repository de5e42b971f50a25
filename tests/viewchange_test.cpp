// View-change and membership edge cases for Ring Paxos: learner-only
// members, larger acceptor sets, double failures, partition-and-heal, and
// coordinator churn under continuous load.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

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

class ViewChangeTest : public ::testing::Test {
 protected:
  /// Ring of `acceptors` acceptor-learners plus `learners` learner-only
  /// members appended after them.
  void build(int acceptors, int learners,
             ringpaxos::RingParams params = {}) {
    n_acceptors_ = acceptors;
    n_total_ = acceptors + learners;
    coord::RingConfig cfg;
    cfg.ring = 0;
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

  std::set<std::string> delivered_set(ProcessId n) {
    std::set<std::string> out;
    for (auto& [node_id, payload] : deliveries_) {
      if (node_id == n) out.insert(payload);
    }
    return out;
  }

  int n_acceptors_ = 0;
  int n_total_ = 0;
  sim::Env env_{321};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  std::vector<std::pair<ProcessId, std::string>> deliveries_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId, InstanceId, const Payload& p) {
        deliveries_.emplace_back(n, p.as_string());
      });
};

TEST_F(ViewChangeTest, LearnerOnlyMemberDeliversWithoutVoting) {
  build(3, 2);  // nodes 4, 5 are learner-only ring members
  for (int i = 0; i < 12; ++i) {
    node(4)->multicast(0, Payload("L" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(500));
  EXPECT_EQ(delivered_set(4).size(), 12u);
  EXPECT_EQ(delivered_set(5).size(), 12u);
  EXPECT_EQ(node(4)->handler(0)->log(), nullptr) << "learner must not log";
}

TEST_F(ViewChangeTest, FiveAcceptorsSurviveTwoFailures) {
  build(5, 0);
  env_.crash(2);
  env_.crash(4);
  env_.sim().run_for(from_millis(200));
  for (int i = 0; i < 10; ++i) {
    node(5)->multicast(0, Payload("q" + std::to_string(i)));
  }
  env_.sim().run_for(from_seconds(2));
  EXPECT_EQ(delivered_set(1).size(), 10u);  // quorum 3 of 5 intact
  EXPECT_EQ(delivered_set(5).size(), 10u);
}

TEST_F(ViewChangeTest, LearnerOnlyCrashDoesNotAffectOthers) {
  build(3, 1);
  env_.crash(4);
  env_.sim().run_for(from_millis(200));
  for (int i = 0; i < 8; ++i) {
    node(1)->multicast(0, Payload("x" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(500));
  EXPECT_EQ(delivered_set(3).size(), 8u);
}

TEST_F(ViewChangeTest, ChurnUnderLoadLosesNothingFromSurvivors) {
  build(5, 0);
  int sent = 0;
  // Continuous load while two members bounce repeatedly.
  for (int round = 0; round < 4; ++round) {
    env_.crash(2);
    for (int i = 0; i < 5; ++i) {
      node(1)->multicast(0, Payload("c" + std::to_string(sent++)));
      env_.sim().run_for(from_millis(25));
    }
    env_.recover(2);
    env_.crash(5);
    for (int i = 0; i < 5; ++i) {
      node(1)->multicast(0, Payload("c" + std::to_string(sent++)));
      env_.sim().run_for(from_millis(25));
    }
    env_.recover(5);
    env_.sim().run_for(from_millis(200));
  }
  env_.sim().run_for(from_seconds(5));
  auto got = delivered_set(1);
  for (int i = 0; i < sent; ++i) {
    EXPECT_TRUE(got.count("c" + std::to_string(i))) << "lost c" << i;
  }
}

TEST_F(ViewChangeTest, NetworkPartitionHealsAndCatchesUp) {
  build(3, 0);
  // Cut node 3 off from both peers: ring circulation bypasses it once the
  // failure detector reacts... but our FD watches crashes, not partitions,
  // so the ring keeps trying to route through 3 and relies on timeouts.
  // With 3 unreachable, Phase 2 messages die on the 2->3 link; the
  // coordinator retries until the partition heals.
  env_.net().set_partitioned(2, 3, true);
  env_.net().set_partitioned(1, 3, true);
  node(1)->multicast(0, Payload(std::string("during-partition")));
  env_.sim().run_for(from_seconds(2));
  env_.net().set_partitioned(2, 3, false);
  env_.net().set_partitioned(1, 3, false);
  env_.sim().run_for(from_seconds(3));
  EXPECT_TRUE(delivered_set(1).count("during-partition"));
  EXPECT_TRUE(delivered_set(3).count("during-partition"))
      << "partitioned node must catch up after healing";
}

TEST_F(ViewChangeTest, RoundsAreMonotoneAcrossElections) {
  build(3, 0);
  Round r0 = node(1)->handler(0)->round();
  env_.crash(1);
  env_.sim().run_for(from_millis(200));
  const Round r1 = node(2)->handler(0)->round();
  EXPECT_GT(r1, r0);
  env_.recover(1);
  env_.crash(2);
  env_.sim().run_for(from_millis(300));
  // Node 1 recovered; with 2 down the sticky election falls to it or 3.
  Round r2 = 0;
  for (ProcessId n : {1, 3}) {
    if (node(n)->handler(0)->is_coordinator()) {
      r2 = node(n)->handler(0)->round();
    }
  }
  EXPECT_GT(r2, r1);
}

TEST_F(ViewChangeTest, TtlKillsOrphanedMessages) {
  build(3, 0, {});
  // Sanity: after heavy churn the simulator must drain (no message loops
  // forever thanks to the TTL backstop).
  for (int i = 0; i < 10; ++i) {
    node(1)->multicast(0, Payload("t" + std::to_string(i)));
  }
  env_.crash(2);
  env_.sim().run_for(from_millis(100));
  env_.recover(2);
  env_.sim().run_for(from_seconds(3));
  const auto before = env_.sim().executed_events();
  env_.sim().run_for(from_seconds(2));
  // Only periodic timers fire once the protocol is quiescent (no lambda:
  // no skip traffic). A runaway loop would execute orders of magnitude
  // more events.
  EXPECT_LT(env_.sim().executed_events() - before, 5000u);
}

}  // namespace
}  // namespace mrp
