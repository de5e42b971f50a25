// Ring Paxos under failures: coordinator crashes, member crashes, ring
// reconfiguration, learner catch-up via retransmission, and safety (decided
// values survive view changes).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

struct Delivery {
  ProcessId node;
  InstanceId instance;
  std::string payload;
};

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

class RingFailureTest : public ::testing::Test {
 protected:
  static constexpr GroupId kRing = 0;

  void build_ring(int n_nodes, ringpaxos::RingParams params = {}) {
    n_ = n_nodes;
    coord::RingConfig cfg;
    cfg.ring = kRing;
    for (int i = 0; i < n_nodes; ++i) {
      cfg.order.push_back(i + 1);
      cfg.acceptors.insert(i + 1);
    }
    registry_->create_ring(cfg);
    multiring::NodeConfig node_cfg;
    node_cfg.rings.push_back(multiring::RingSub{kRing, params, true});
    for (int i = 0; i < n_nodes; ++i) {
      env_.spawn<TestNode>(i + 1, registry_.get(), node_cfg, sink_);
    }
  }

  TestNode* node(ProcessId id) { return env_.process_as<TestNode>(id); }

  std::vector<Delivery> delivered_at(ProcessId n) const {
    std::vector<Delivery> out;
    for (const auto& d : deliveries_) {
      if (d.node == n) out.push_back(d);
    }
    return out;
  }

  /// Checks the single-ring agreement property: deliveries of any two nodes
  /// agree on every instance both delivered.
  void expect_consistent_histories() {
    std::map<InstanceId, std::string> canonical;
    for (const auto& d : deliveries_) {
      auto [it, inserted] = canonical.emplace(d.instance, d.payload);
      if (!inserted) {
        EXPECT_EQ(it->second, d.payload)
            << "instance " << d.instance << " decided twice differently";
      }
    }
  }

  int n_ = 0;
  sim::Env env_{99};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  std::vector<Delivery> deliveries_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId, InstanceId i, const Payload& p) {
        deliveries_.push_back({n, i, p.as_string()});
      });
};

TEST_F(RingFailureTest, CoordinatorCrashElectsNewCoordinator) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  ASSERT_TRUE(node(1)->handler(kRing)->is_coordinator());
  env_.crash(1);
  env_.sim().run_for(from_millis(200));  // failure detection + view change
  EXPECT_TRUE(node(2)->handler(kRing)->is_coordinator());
  EXPECT_FALSE(node(3)->handler(kRing)->is_coordinator());
}

TEST_F(RingFailureTest, ProgressAfterCoordinatorCrash) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  node(2)->multicast(kRing, Payload(std::string("before")));
  env_.sim().run_for(from_millis(100));
  env_.crash(1);
  env_.sim().run_for(from_millis(300));
  node(2)->multicast(kRing, Payload(std::string("after")));
  env_.sim().run_for(from_millis(2500));  // proposer retry may be needed

  auto d2 = delivered_at(2);
  auto d3 = delivered_at(3);
  std::set<std::string> got2, got3;
  for (auto& d : d2) got2.insert(d.payload);
  for (auto& d : d3) got3.insert(d.payload);
  EXPECT_TRUE(got2.count("before") && got2.count("after"));
  EXPECT_TRUE(got3.count("before") && got3.count("after"));
  expect_consistent_histories();
}

TEST_F(RingFailureTest, InFlightValueSurvivesCoordinatorCrash) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  // Propose via the coordinator and crash it almost immediately: the value
  // may be mid-circulation; the proposer (node 2) must retry and the value
  // must eventually be delivered exactly once per node.
  node(2)->multicast(kRing, Payload(std::string("survivor")));
  env_.sim().run_for(from_micros(150));
  env_.crash(1);
  env_.sim().run_for(from_seconds(5));

  auto d2 = delivered_at(2);
  int count = 0;
  for (auto& d : d2) {
    if (d.payload == "survivor") ++count;
  }
  EXPECT_EQ(count, 1) << "value lost or duplicated at ring level";
  expect_consistent_histories();
}

TEST_F(RingFailureTest, MinorityAcceptorCrashDoesNotBlock) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  env_.crash(3);  // not the coordinator; quorum 2/3 intact
  env_.sim().run_for(from_millis(200));
  for (int i = 0; i < 10; ++i) {
    node(2)->multicast(kRing, Payload("m" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(2000));
  EXPECT_EQ(delivered_at(1).size(), 10u);
  EXPECT_EQ(delivered_at(2).size(), 10u);
}

TEST_F(RingFailureTest, MajorityCrashBlocksUntilRecovery) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  env_.crash(2);
  env_.crash(3);
  env_.sim().run_for(from_millis(200));
  node(1)->multicast(kRing, Payload(std::string("stuck")));
  env_.sim().run_for(from_millis(1000));
  EXPECT_TRUE(delivered_at(1).empty()) << "no quorum, must not decide";

  env_.recover(2);
  env_.sim().run_for(from_seconds(4));  // rejoin + proposer retry
  std::set<std::string> got;
  for (auto& d : delivered_at(1)) got.insert(d.payload);
  EXPECT_TRUE(got.count("stuck"));
  expect_consistent_histories();
}

TEST_F(RingFailureTest, CrashedLearnerCatchesUpAfterRecovery) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 5; ++i) {
    node(1)->multicast(kRing, Payload("a" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(200));
  env_.crash(3);
  env_.sim().run_for(from_millis(200));
  for (int i = 5; i < 10; ++i) {
    node(1)->multicast(kRing, Payload("a" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(200));
  env_.recover(3);
  // Keep traffic flowing so the recovered learner sees fresh decisions and
  // detects its gap.
  for (int i = 10; i < 15; ++i) {
    node(1)->multicast(kRing, Payload("a" + std::to_string(i)));
    env_.sim().run_for(from_millis(50));
  }
  env_.sim().run_for(from_seconds(2));

  auto d3 = delivered_at(3);
  // Node 3 delivered a0..a4 before the crash (those deliveries are in the
  // test log from its first life) and must deliver a5..a14 after recovery.
  std::set<std::string> got;
  for (auto& d : d3) got.insert(d.payload);
  for (int i = 0; i < 15; ++i) {
    EXPECT_TRUE(got.count("a" + std::to_string(i))) << "missing a" << i;
  }
  expect_consistent_histories();
}

TEST_F(RingFailureTest, RepeatedCoordinatorFailover) {
  build_ring(5);
  env_.sim().run_for(from_millis(10));
  int seq = 0;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5; ++i) {
      node(5)->multicast(kRing, Payload("r" + std::to_string(seq++)));
      env_.sim().run_for(from_millis(20));
    }
    env_.crash(round + 1);  // kill coordinators 1, then 2, then 3
    env_.sim().run_for(from_millis(500));
  }
  env_.sim().run_for(from_seconds(5));

  std::set<std::string> got;
  for (auto& d : delivered_at(5)) got.insert(d.payload);
  for (int i = 0; i < seq; ++i) {
    EXPECT_TRUE(got.count("r" + std::to_string(i))) << "missing r" << i;
  }
  expect_consistent_histories();
}

TEST_F(RingFailureTest, RecoveredCoordinatorDoesNotRegressDecisions) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 8; ++i) {
    node(2)->multicast(kRing, Payload("x" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(300));
  env_.crash(1);
  env_.sim().run_for(from_millis(300));
  env_.recover(1);
  env_.sim().run_for(from_millis(500));
  for (int i = 8; i < 12; ++i) {
    node(2)->multicast(kRing, Payload("x" + std::to_string(i)));
  }
  env_.sim().run_for(from_seconds(3));
  expect_consistent_histories();
  std::set<std::string> got;
  for (auto& d : delivered_at(2)) got.insert(d.payload);
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(got.count("x" + std::to_string(i))) << "missing x" << i;
  }
}

TEST_F(RingFailureTest, AcceptorLogSurvivesCrash) {
  build_ring(3);
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 6; ++i) {
    node(1)->multicast(kRing, Payload("p" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(300));
  const auto before = node(2)->handler(kRing)->log()->record_count();
  EXPECT_GE(before, 6u);
  env_.crash(2);
  env_.sim().run_for(from_millis(200));
  env_.recover(2);
  env_.sim().run_for(from_millis(200));
  EXPECT_GE(node(2)->handler(kRing)->log()->record_count(), before);
}

}  // namespace
}  // namespace mrp
