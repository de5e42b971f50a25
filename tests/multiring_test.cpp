// Multi-Ring Paxos: deterministic merge across groups, subscriptions,
// rate leveling keeping the merge live, and the merger unit itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/merger.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

using multiring::DeterministicMerger;

paxos::Value val(const std::string& s) {
  paxos::Value v;
  v.payload = Payload(s);
  return v;
}

TEST(Merger, RoundRobinInGroupIdOrder) {
  std::vector<std::string> out;
  DeterministicMerger m({2, 1}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  // Feed both groups fully; merge starts at the lowest group id.
  m.on_decision(1, 0, val("a"));
  m.on_decision(1, 1, val("b"));
  m.on_decision(2, 0, val("x"));
  m.on_decision(2, 1, val("y"));
  EXPECT_EQ(out, (std::vector<std::string>{"1:a", "2:x", "1:b", "2:y"}));
}

TEST(Merger, StallsOnMissingGroupThenResumes) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  m.on_decision(1, 0, val("a"));
  m.on_decision(1, 1, val("b"));
  EXPECT_EQ(out.size(), 1u);  // delivered a, now waiting on group 2
  EXPECT_EQ(m.waiting_on(), 2);
  m.on_decision(2, 0, val("x"));
  EXPECT_EQ(out, (std::vector<std::string>{"1:a", "2:x", "1:b"}));
}

TEST(Merger, MLargerThanOne) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 3, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  for (InstanceId i = 0; i < 6; ++i) m.on_decision(1, i, val("v"));
  for (InstanceId i = 0; i < 6; ++i) m.on_decision(2, i, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0", "1@1", "1@2", "2@0", "2@1",
                                           "2@2", "1@3", "1@4", "1@5", "2@3",
                                           "2@4", "2@5"}));
}

TEST(Merger, SkipsConsumeQuotaSilently) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  // Group 1: one skip range covering instances 0..4, then a value at 5.
  // Group 2: six values. With M=1 the range is consumed one instance per
  // turn, interleaved with group 2's values.
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 5));
  m.on_decision(1, 5, val("a"));
  for (InstanceId i = 0; i < 6; ++i) {
    m.on_decision(2, i, val("x" + std::to_string(i)));
  }
  EXPECT_EQ(out, (std::vector<std::string>{"2:x0", "2:x1", "2:x2", "2:x3",
                                           "2:x4", "1:a", "2:x5"}));
  EXPECT_EQ(m.skipped_instances(), 5u);
}

TEST(Merger, SkipRangeSpillsAcrossWindows) {
  // M=2: a range of 3 fills one window and half of the next turn's quota.
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 2, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 3));  // 0..2
  m.on_decision(1, 3, val("v"));
  m.on_decision(2, 0, val("v"));
  m.on_decision(2, 1, val("v"));
  m.on_decision(2, 2, val("v"));
  m.on_decision(2, 3, val("v"));
  // Window 1 of g1: skips 0,1. Window of g2: 0,1. Window 2 of g1: skip 2 +
  // value@3. Window of g2: 2,3.
  EXPECT_EQ(out, (std::vector<std::string>{"2@0", "2@1", "1@3", "2@2", "2@3"}));
  EXPECT_EQ(m.skipped_instances(), 3u);
}

TEST(Merger, DuplicateValueRedeliveryIsIgnored) {
  // Recovery replays (retransmission after a checkpoint install) can hand
  // the merger decisions it has already merged; they must be no-ops.
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  m.on_decision(1, 0, val("a"));
  m.on_decision(2, 0, val("x"));
  m.on_decision(1, 0, val("a"));  // duplicate redelivery
  m.on_decision(2, 0, val("x"));  // duplicate redelivery
  m.on_decision(1, 1, val("b"));
  m.on_decision(2, 1, val("y"));
  EXPECT_EQ(out, (std::vector<std::string>{"1:a", "2:x", "1:b", "2:y"}));
}

TEST(Merger, DuplicateSkipRangeRedeliveryIsIgnored) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 3));  // covers 0..2
  m.on_decision(2, 0, val("x"));
  m.on_decision(2, 1, val("y"));
  m.on_decision(2, 2, val("z"));
  ASSERT_EQ(m.skipped_instances(), 3u);
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 3));  // full duplicate
  EXPECT_EQ(m.skipped_instances(), 3u) << "duplicate skip consumed quota twice";
  m.on_decision(1, 3, val("a"));
  m.on_decision(2, 3, val("w"));
  EXPECT_EQ(out, (std::vector<std::string>{"2:x", "2:y", "2:z", "1:a", "2:w"}));
}

TEST(Merger, SkipRangeStraddlingInstalledTupleConsumesOnlySuffix) {
  // A recovering replica installs a checkpoint tuple that lands inside a
  // skip range: the prefix below the tuple is already reflected in the
  // checkpoint, only the suffix may consume merge quota.
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  m.install_tuple(storage::CheckpointTuple{{1, 3}, {2, 2}});
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 5));  // 0..4; 3..4 remain
  m.on_decision(1, 5, val("a"));
  m.on_decision(2, 2, val("x"));
  m.on_decision(2, 3, val("y"));
  m.on_decision(2, 4, val("z"));
  // Only instances 3 and 4 of the range consume quota (one per M=1 turn):
  // g1 skips 3, g2 delivers 2; g1 skips 4, g2 delivers 3; then 1@5, 2@4.
  EXPECT_EQ(m.skipped_instances(), 2u);
  EXPECT_EQ(out, (std::vector<std::string>{"2@2", "2@3", "1@5", "2@4"}));
}

TEST(Merger, RedeliveryBelowInstalledTupleIsDiscarded) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(i));
  });
  m.install_tuple(storage::CheckpointTuple{{1, 5}, {2, 0}});
  m.on_decision(1, 4, val("old"));  // fully below the tuple
  m.on_decision(1, 5, val("a"));
  m.on_decision(2, 0, val("x"));
  EXPECT_EQ(out, (std::vector<std::string>{"5", "0"}));
}

TEST(Merger, CrossGroupArrivalOrderDoesNotChangeMergeOrder) {
  // The same per-group streams fed in two different cross-group
  // interleavings (group-2-first vs alternating) must merge identically —
  // including a skip range that reorders around real values.
  auto run = [](bool group2_first) {
    std::vector<std::string> out;
    DeterministicMerger m({1, 2}, 2,
                          [&](GroupId g, InstanceId i, const paxos::Value&) {
                            out.push_back(std::to_string(g) + "@" +
                                          std::to_string(i));
                          });
    auto feed1 = [&](int step) {
      switch (step) {
        case 0: m.on_decision(1, 0, val("a")); break;
        case 1: m.on_decision(1, 1, paxos::Value::skip({1, 1}, 3)); break;
        case 2: m.on_decision(1, 4, val("b")); break;
      }
    };
    auto feed2 = [&](int step) {
      m.on_decision(2, static_cast<InstanceId>(step),
                    val("x" + std::to_string(step)));
    };
    if (group2_first) {
      for (int s = 0; s < 3; ++s) feed2(s);
      for (int s = 0; s < 3; ++s) feed1(s);
    } else {
      for (int s = 0; s < 3; ++s) {
        feed1(s);
        feed2(s);
      }
    }
    return out;
  };
  const auto a = run(true);
  const auto b = run(false);
  EXPECT_EQ(a, b) << "merge order depends on cross-group arrival order";
}

TEST(Merger, TupleReflectsMergedPrefix) {
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  m.on_decision(1, 0, val("a"));
  m.on_decision(2, 0, val("x"));
  m.on_decision(1, 1, val("b"));  // merged (group 1's next window)
  auto t = m.tuple();
  EXPECT_EQ(t[1], 2u);
  EXPECT_EQ(t[2], 1u);
}

TEST(Merger, BoundaryHookFiresOncePerRound) {
  int boundaries = 0;
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  m.set_boundary_hook([&] { ++boundaries; });
  m.on_decision(1, 0, val("a"));
  EXPECT_EQ(boundaries, 0);
  m.on_decision(2, 0, val("x"));
  EXPECT_EQ(boundaries, 1);
  m.on_decision(1, 1, val("b"));
  m.on_decision(2, 1, val("y"));
  EXPECT_EQ(boundaries, 2);
}

TEST(Merger, PauseBuffersResumeFlushes) {
  std::vector<std::string> out;
  DeterministicMerger m({1}, 1, [&](GroupId, InstanceId, const paxos::Value& v) {
    out.push_back(v.payload.as_string());
  });
  m.pause();
  m.on_decision(1, 0, val("a"));
  m.on_decision(1, 1, val("b"));
  EXPECT_TRUE(out.empty());
  m.resume();
  EXPECT_EQ(out, (std::vector<std::string>{"a", "b"}));
}

TEST(Merger, InstallTupleSkipsForward) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(i));
  });
  storage::CheckpointTuple t{{1, 5}, {2, 3}};
  m.install_tuple(t);
  m.on_decision(1, 5, val("a"));
  m.on_decision(2, 3, val("x"));
  EXPECT_EQ(out, (std::vector<std::string>{"5", "3"}));
}

TEST(MergerDemand, StalledGroupOwesItsBufferedPeersBacklog) {
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  EXPECT_FALSE(m.demand().has_value()) << "nothing decided anywhere";
  // Group 1 delivers instance 0, then the merge waits on group 2 while
  // group 1 holds instances 1..3.
  for (InstanceId i = 0; i < 4; ++i) m.on_decision(1, i, val("a"));
  auto d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 2);
  EXPECT_EQ(d->owed, 3u);
  // A skip range covering the debt drains group 1 and clears the demand.
  m.on_decision(2, 0, paxos::Value::skip({2, 1}, 3));
  EXPECT_EQ(m.delivered(), 4u);
  EXPECT_FALSE(m.demand().has_value());
}

TEST(MergerDemand, PartiallyConsumedSkipRangeCountsAsMerged) {
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  // Group 1: a 5-instance skip range. Group 1 moves first, so after group
  // 2's two values three of the range's instances are merged and two
  // remain buffered.
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 5));
  m.on_decision(2, 0, val("x"));
  m.on_decision(2, 1, val("y"));
  auto d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 2);
  EXPECT_EQ(d->owed, 2u);
}

TEST(MergerDemand, PausedMergerDemandsNothing) {
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  m.pause();
  for (InstanceId i = 0; i < 3; ++i) m.on_decision(1, i, val("a"));
  EXPECT_FALSE(m.demand().has_value())
      << "a paused merger is stalled on itself, not on a group";
  m.resume();
  ASSERT_TRUE(m.demand().has_value());
  EXPECT_EQ(m.demand()->group, 2);
  EXPECT_EQ(m.demand()->owed, 2u);
}

TEST(MergerDemand, AtRoundBoundaryTheFirstGroupOwes) {
  DeterministicMerger m({1, 2}, 1, [](GroupId, InstanceId, const paxos::Value&) {});
  // Group 2 is ahead; the merge sits at a round boundary waiting on group 1.
  m.on_decision(2, 0, val("x"));
  m.on_decision(2, 1, val("y"));
  ASSERT_TRUE(m.at_round_boundary());
  auto d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 1);
  EXPECT_EQ(d->owed, 2u);
  // Group 1 catches up and overtakes by one: now group 2 owes one.
  for (InstanceId i = 0; i < 4; ++i) m.on_decision(1, i, val("a"));
  EXPECT_EQ(m.waiting_on(), 2);
  ASSERT_TRUE(m.demand().has_value());
  EXPECT_EQ(m.demand()->group, 2);
  EXPECT_EQ(m.demand()->owed, 1u);
}

TEST(MergerDemand, OwedRoundsUpToTheMergeWindow) {
  DeterministicMerger m({1, 2}, 4, [](GroupId, InstanceId, const paxos::Value&) {});
  for (InstanceId i = 0; i < 5; ++i) m.on_decision(2, i, val("x"));
  auto d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 1);
  EXPECT_EQ(d->owed, 8u) << "a backlog of 5 needs two full M=4 turns";
  // Paying the debt lets group 2 deliver all five.
  m.on_decision(1, 0, paxos::Value::skip({1, 1}, 8));
  EXPECT_EQ(m.delivered(), 5u);
}

TEST(MergerDemand, MidTurnOwesOnlyTheRestOfTheTurn) {
  DeterministicMerger m({1, 2}, 4, [](GroupId, InstanceId, const paxos::Value&) {});
  // Group 1 has used one of its four instances this turn; group 2 holds
  // three. Three more from group 1 end its turn and let group 2 deliver;
  // a whole M would push group 1 one instance into its next turn.
  m.on_decision(1, 0, val("a"));
  for (InstanceId i = 0; i < 3; ++i) m.on_decision(2, i, val("x"));
  auto d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 1);
  EXPECT_EQ(d->owed, 3u);
  m.on_decision(1, 1, paxos::Value::skip({1, 1}, 3));
  EXPECT_EQ(m.delivered(), 4u);
  EXPECT_EQ(m.waiting_on(), 2);
  // Five more from group 2 (eight in all) need group 1's whole next turn.
  for (InstanceId i = 3; i < 8; ++i) m.on_decision(2, i, val("y"));
  d = m.demand();
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->group, 1);
  EXPECT_EQ(d->owed, 4u);
}

// --- end-to-end multi-ring tests ---

struct Delivery {
  ProcessId node;
  GroupId group;
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

class MultiRingTest : public ::testing::Test {
 protected:
  /// Two rings: nodes 1-3 are members of both; node 4 is a member of ring 2
  /// only (the paper's Figure 2(c) layout, with L3 subscribing ring 2).
  /// Node 1 coordinates both rings; with `node1_learns_ring2` false it stays
  /// a ring-2 member (and coordinator) but delivers ring 1 only.
  void build_fig2c(double lambda = 2000, bool node1_learns_ring2 = true) {
    ringpaxos::RingParams p;
    p.lambda = lambda;
    p.skip_interval = 5 * kMillisecond;

    coord::RingConfig r1;
    r1.ring = 1;
    r1.order = {1, 2, 3};
    r1.acceptors = {1, 2, 3};
    registry_->create_ring(r1);

    coord::RingConfig r2;
    r2.ring = 2;
    r2.order = {1, 2, 3, 4};
    r2.acceptors = {1, 2, 3};
    registry_->create_ring(r2);

    multiring::NodeConfig both;
    both.rings = {multiring::RingSub{1, p, true},
                  multiring::RingSub{2, p, true}};
    multiring::NodeConfig only2;
    only2.rings = {multiring::RingSub{2, p, true}};

    multiring::NodeConfig node1 = both;
    node1.rings[1].learner = node1_learns_ring2;

    env_.spawn<TestNode>(1, registry_.get(), node1, sink_);
    for (ProcessId n : {2, 3}) {
      env_.spawn<TestNode>(n, registry_.get(), both, sink_);
    }
    env_.spawn<TestNode>(4, registry_.get(), only2, sink_);
  }

  /// Multicasts `payload` to `group` from node `via` and returns the time.
  TimeNs send_at(ProcessId via, GroupId group, const std::string& payload) {
    env_.process_as<TestNode>(via)->multicast(group, Payload(payload));
    sent_at_[payload] = env_.now();
    return env_.now();
  }

  /// Largest send-to-delivery latency over the payloads sent with send_at,
  /// at node `n`; fails the test if any of them was not delivered there.
  TimeNs max_latency_at(ProcessId n) const {
    TimeNs worst = 0;
    for (const auto& [payload, sent] : sent_at_) {
      auto it = delivered_time_.find({n, payload});
      if (it == delivered_time_.end()) {
        ADD_FAILURE() << payload << " not delivered at node " << n;
        continue;
      }
      worst = std::max(worst, it->second - sent);
    }
    return worst;
  }

  std::vector<Delivery> delivered_at(ProcessId n) const {
    std::vector<Delivery> out;
    for (const auto& d : deliveries_) {
      if (d.node == n) out.push_back(d);
    }
    return out;
  }

  sim::Env env_{42};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender));
  std::vector<Delivery> deliveries_;
  std::map<std::string, TimeNs> sent_at_;
  std::map<std::pair<ProcessId, std::string>, TimeNs> delivered_time_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId g, InstanceId i, const Payload& p) {
        deliveries_.push_back({n, g, i, p.as_string()});
        delivered_time_.emplace(std::make_pair(n, p.as_string()), env_.now());
      });
};

TEST_F(MultiRingTest, LearnersWithSameSubscriptionsDeliverIdentically) {
  build_fig2c();
  env_.sim().run_for(from_millis(20));
  for (int i = 0; i < 30; ++i) {
    const GroupId g = (i % 2) + 1;
    env_.process_as<TestNode>(1)->multicast(g, Payload("m" + std::to_string(i)));
    env_.sim().run_for(from_millis(3));
  }
  env_.sim().run_for(from_millis(1000));

  auto d1 = delivered_at(1);
  auto d2 = delivered_at(2);
  auto d3 = delivered_at(3);
  ASSERT_EQ(d1.size(), 30u);
  ASSERT_EQ(d2.size(), d1.size());
  ASSERT_EQ(d3.size(), d1.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].payload, d2[i].payload) << "diverged at " << i;
    EXPECT_EQ(d1[i].payload, d3[i].payload) << "diverged at " << i;
  }
}

TEST_F(MultiRingTest, PartialSubscriberSeesOnlyItsGroup) {
  build_fig2c();
  env_.sim().run_for(from_millis(20));
  for (int i = 0; i < 10; ++i) {
    env_.process_as<TestNode>(1)->multicast(1, Payload("g1-" + std::to_string(i)));
    env_.process_as<TestNode>(1)->multicast(2, Payload("g2-" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(1000));

  auto d4 = delivered_at(4);
  ASSERT_EQ(d4.size(), 10u);
  for (auto& d : d4) {
    EXPECT_EQ(d.group, 2);
    EXPECT_EQ(d.payload.substr(0, 3), "g2-");
  }
}

TEST_F(MultiRingTest, GroupStreamsAgreeAcrossDifferentPartitions) {
  build_fig2c();
  env_.sim().run_for(from_millis(20));
  for (int i = 0; i < 12; ++i) {
    env_.process_as<TestNode>(2)->multicast(2, Payload("z" + std::to_string(i)));
    env_.sim().run_for(from_millis(2));
  }
  env_.sim().run_for(from_millis(1000));

  // Node 1 (subscribes 1+2) and node 4 (subscribes 2 only) must see the
  // same ring-2 message sequence.
  std::vector<std::string> s1, s4;
  for (auto& d : delivered_at(1)) {
    if (d.group == 2) s1.push_back(d.payload);
  }
  for (auto& d : delivered_at(4)) s4.push_back(d.payload);
  EXPECT_EQ(s1, s4);
}

TEST_F(MultiRingTest, IdleRingDoesNotBlockLoadedRing) {
  build_fig2c(/*lambda=*/2000);
  env_.sim().run_for(from_millis(20));
  // Only ring 1 carries traffic; ring 2 is idle and must be filled by
  // rate-leveling skips so that nodes 1-3 keep delivering ring 1.
  for (int i = 0; i < 20; ++i) {
    env_.process_as<TestNode>(3)->multicast(1, Payload("only1-" + std::to_string(i)));
    env_.sim().run_for(from_millis(2));
  }
  env_.sim().run_for(from_millis(1000));
  EXPECT_EQ(delivered_at(1).size(), 20u);
  EXPECT_EQ(delivered_at(2).size(), 20u);
}

TEST_F(MultiRingTest, WithoutRateLevelingIdleRingStallsMerge) {
  build_fig2c(/*lambda=*/0);  // rate leveling off
  env_.sim().run_for(from_millis(20));
  env_.process_as<TestNode>(1)->multicast(1, Payload(std::string("lonely")));
  env_.sim().run_for(from_millis(500));
  // One message in ring 1 can be delivered (merge starts at ring 1), but a
  // second must stall waiting for ring 2 traffic.
  env_.process_as<TestNode>(1)->multicast(1, Payload(std::string("stuck")));
  env_.sim().run_for(from_millis(500));
  auto d1 = delivered_at(1);
  ASSERT_EQ(d1.size(), 1u);
  EXPECT_EQ(d1[0].payload, "lonely");
  // Traffic on ring 2 unblocks the merge.
  env_.process_as<TestNode>(1)->multicast(2, Payload(std::string("unblock")));
  env_.sim().run_for(from_millis(500));
  EXPECT_EQ(delivered_at(1).size(), 3u);
}

// Demand-driven skips (Delta = 5 ms, lambda = 2000). Without them a message
// on one ring waits for the other ring's next rate-leveling tick: up to a
// whole Delta. With them the stalled merger gets the idle ring skipped at
// once, and the latency is a few ring passes.
constexpr TimeNs kDelta = 5 * kMillisecond;

TEST_F(MultiRingTest, LoneMessageIsDeliveredWellUnderDelta) {
  build_fig2c();
  env_.sim().run_for(from_millis(50));
  // Lone messages at phases spread over the Delta tick (7.3 ms apart), on
  // both rings. The merge turns to ring 1 first in each round, so it is a
  // ring-2 message that waits for ring 1 to decide more instances.
  for (int i = 0; i < 20; ++i) {
    send_at((i % 3) + 1, (i % 2) + 1, "lone" + std::to_string(i));
    env_.sim().run_for(from_micros(7300));
  }
  env_.sim().run_for(from_millis(100));
  for (ProcessId n : {1, 2, 3}) {
    EXPECT_LT(max_latency_at(n), kDelta / 4) << "node " << n;
  }
}

TEST_F(MultiRingTest, NonCoordinatorLearnerDemandsSkipOverTheWire) {
  // Node 1 coordinates both rings but delivers ring 1 only, so its own
  // merger never sees ring 2's backlog. Nodes 2 and 3 stall on ring 1
  // whenever ring 2 decides a value; only their MsgSkipDemand to node 1
  // gets ring 1 skipped before its next Delta tick.
  build_fig2c(2000, /*node1_learns_ring2=*/false);
  env_.sim().run_for(from_millis(50));
  ASSERT_TRUE(env_.process_as<TestNode>(1)->handler(1)->is_coordinator());
  for (int i = 0; i < 20; ++i) {
    send_at(4, 2, "r2-" + std::to_string(i));
    env_.sim().run_for(from_micros(7300));
  }
  env_.sim().run_for(from_millis(100));
  for (ProcessId n : {2, 3}) {
    EXPECT_LT(max_latency_at(n), kDelta / 4) << "node " << n;
  }
  EXPECT_TRUE(delivered_at(1).empty()) << "node 1 delivers ring 1 only";
}

TEST_F(MultiRingTest, DemandMadeWhileAValueIsInFlightIsServedOnItsDecision) {
  // Node 1 coordinates both rings but delivers ring 1 only. Each round,
  // three ring-2 values stall nodes 2 and 3 on ring 1, and their demand
  // reaches node 1 while its own ring-1 value is still in flight, so node 1
  // must not skip yet. Deciding that value leaves the demand unchanged, so
  // the learners do not repeat it: node 1 keeps it and serves it on the
  // decision, instead of leaving the merge to the next Delta tick.
  build_fig2c(2000, /*node1_learns_ring2=*/false);
  env_.sim().run_for(from_millis(50));
  for (int round = 0; round < 10; ++round) {
    for (int j = 0; j < 3; ++j) {
      send_at(4, 2, "d" + std::to_string(round) + "-" + std::to_string(j));
    }
    env_.sim().run_for(from_micros(100));
    env_.process_as<TestNode>(1)->multicast(
        1, Payload("e" + std::to_string(round)));
    env_.sim().run_for(from_micros(7200));
  }
  env_.sim().run_for(from_millis(100));
  for (ProcessId n : {2, 3}) {
    EXPECT_LT(max_latency_at(n), kDelta / 4) << "node " << n;
  }
}

TEST_F(MultiRingTest, LoadedRingCostsItsIdlePeerOneDemandSkipPerPass) {
  // Ring 1 decides a value every 20 us while ring 2 stays idle, so after
  // each ring-1 decision the learners' merges stall on ring 2 and demand a
  // skip. Node 1, ring 2's coordinator, keeps one demand skip in flight and
  // serves the demands that arrive meanwhile together, so ring 2 runs about
  // one skip per ring pass instead of one per ring-1 decision.
  build_fig2c();
  env_.sim().run_for(from_millis(50));
  const ringpaxos::RingHandler* ring2 =
      env_.process_as<TestNode>(1)->handler(2);
  const std::uint64_t skips_before = ring2->skip_count();
  constexpr int kValues = 1000;
  for (int i = 0; i < kValues; ++i) {
    env_.process_as<TestNode>((i % 3) + 1)->multicast(
        1, Payload("v" + std::to_string(i)));
    env_.sim().run_for(from_micros(20));
  }
  env_.sim().run_for(from_millis(100));
  ASSERT_EQ(delivered_at(2).size(), static_cast<std::size_t>(kValues));
  EXPECT_LT(ring2->skip_count() - skips_before, kValues / 4u);
}

TEST_F(MultiRingTest, BurstAboveLambdaLeavesNoLastingLag) {
  // 400 values at once is 200 ms of lambda: ring 1 gets 400 instances ahead
  // of ring 2, whose rate leveling only ever adds lambda's worth per Delta.
  // Timer skips alone keep that lag forever; demand skips close it.
  build_fig2c();
  env_.sim().run_for(from_millis(50));
  for (int i = 0; i < 400; ++i) {
    env_.process_as<TestNode>(2)->multicast(1, Payload("b" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(300));
  ASSERT_EQ(delivered_at(1).size(), 400u);
  for (int i = 0; i < 20; ++i) {
    send_at(2, 1, "after" + std::to_string(i));
    env_.sim().run_for(from_micros(7300));
  }
  env_.sim().run_for(from_millis(100));
  for (ProcessId n : {1, 2, 3}) {
    EXPECT_LT(max_latency_at(n), kDelta / 4) << "node " << n;
  }
}

TEST_F(MultiRingTest, CrossGroupDeliveryRelationIsAcyclic) {
  build_fig2c();
  env_.sim().run_for(from_millis(20));
  for (int i = 0; i < 20; ++i) {
    env_.process_as<TestNode>(1)->multicast((i % 2) + 1,
                                            Payload("c" + std::to_string(i)));
    env_.sim().run_for(from_millis(1));
  }
  env_.sim().run_for(from_millis(1000));

  // Build the global delivery-order relation: for every ordered pair of
  // messages delivered by some node, record an edge; the union must stay
  // consistent (no node orders m before m' while another orders m' before
  // m). With identical subscriptions for nodes 1-3 and a subset for node 4,
  // pairwise consistency is exactly the paper's acyclic-order property.
  std::map<std::string, std::map<std::string, bool>> before;
  for (ProcessId n : {1, 2, 3, 4}) {
    auto ds = delivered_at(n);
    for (std::size_t i = 0; i < ds.size(); ++i) {
      for (std::size_t j = i + 1; j < ds.size(); ++j) {
        before[ds[i].payload][ds[j].payload] = true;
      }
    }
  }
  for (const auto& [a, succ] : before) {
    for (const auto& [b, _] : succ) {
      EXPECT_FALSE(before.count(b) && before.at(b).count(a))
          << "cycle: " << a << " <-> " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch-aware merger: groups joining and leaving the rotation.

TEST(MergerDynamic, EmptyMergerDeliversNothingUntilFirstGroup) {
  std::vector<std::string> out;
  DeterministicMerger m({}, 1, [&](GroupId g, InstanceId, const paxos::Value& v) {
    out.push_back(std::to_string(g) + ":" + v.payload.as_string());
  });
  EXPECT_TRUE(m.at_round_boundary());
  EXPECT_EQ(m.waiting_on(), -1);
  m.add_group(3);  // at a boundary: active immediately
  m.on_decision(3, 0, val("a"));
  EXPECT_EQ(out, (std::vector<std::string>{"3:a"}));
}

TEST(MergerDynamic, AddGroupActivatesAtNextRoundBoundary) {
  std::vector<std::string> out;
  DeterministicMerger m({1}, 2, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  m.on_decision(1, 0, val("v"));  // mid-window: consumed 1 of M=2
  m.add_group(2);
  // Decisions for the pending group buffer without consuming quota.
  m.on_decision(2, 0, val("v"));
  m.on_decision(2, 1, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0"}));
  // Completing group 1's window crosses the boundary; group 2 splices in
  // and the next round runs 1's window, then 2's buffered window.
  m.on_decision(1, 1, val("v"));
  EXPECT_EQ(m.groups(), (std::vector<GroupId>{1, 2}));
  m.on_decision(1, 2, val("v"));
  m.on_decision(1, 3, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0", "1@1", "1@2", "1@3", "2@0",
                                           "2@1"}));
}

TEST(MergerDynamic, JoinerStartsAtInstalledStartInstance) {
  std::vector<std::string> out;
  DeterministicMerger m({1}, 1, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  // Join group 5 mid-stream at instance 40 (bootstrapped from a
  // checkpoint): earlier instances are already covered by the state.
  m.add_group(5, 40);
  m.on_decision(5, 40, val("v"));
  m.on_decision(1, 0, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0", "5@40"}));
}

TEST(MergerDynamic, RemoveGroupRetiresAtItsNextTurn) {
  std::vector<std::string> out;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  m.on_decision(1, 0, val("v"));
  // Cursor now waits on group 2's turn. Retiring group 2 releases the
  // rotation even though the group never produces another decision (its
  // handler may already be gone).
  m.remove_group(2);
  EXPECT_EQ(m.groups(), (std::vector<GroupId>{1}));
  m.on_decision(1, 1, val("v"));
  m.on_decision(1, 2, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0", "1@1", "1@2"}));
}

TEST(MergerDynamic, RemoveDuringDeliveryRetiresAfterTheCallback) {
  // The control-command pattern: a delivered message of group 2 makes the
  // learner unsubscribe group 2 (same point on every peer).
  std::vector<std::string> out;
  DeterministicMerger* mp = nullptr;
  DeterministicMerger m({1, 2}, 1, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
    if (g == 2 && i == 0) mp->remove_group(2);
  });
  mp = &m;
  m.on_decision(1, 0, val("v"));
  m.on_decision(1, 1, val("v"));
  m.on_decision(2, 0, val("v"));
  m.on_decision(1, 2, val("v"));
  EXPECT_EQ(out, (std::vector<std::string>{"1@0", "2@0", "1@1", "1@2"}));
  EXPECT_EQ(m.groups(), (std::vector<GroupId>{1}));
}

TEST(MergerDynamic, RoundCounterAdvancesPerCompletedRound) {
  DeterministicMerger m({1, 2}, 2, [](GroupId, InstanceId, const paxos::Value&) {});
  EXPECT_EQ(m.round(), 0u);
  for (InstanceId i = 0; i < 4; ++i) m.on_decision(1, i, val("v"));
  for (InstanceId i = 0; i < 4; ++i) m.on_decision(2, i, val("v"));
  EXPECT_EQ(m.round(), 2u);
  EXPECT_TRUE(m.at_round_boundary());
}

TEST(MergerDynamic, PendingAddCancelledByRemove) {
  std::vector<std::string> out;
  DeterministicMerger m({1}, 2, [&](GroupId g, InstanceId i, const paxos::Value&) {
    out.push_back(std::to_string(g) + "@" + std::to_string(i));
  });
  m.on_decision(1, 0, val("v"));  // mid-window
  m.add_group(2);
  m.remove_group(2);  // cancelled before activation
  m.on_decision(1, 1, val("v"));
  m.on_decision(1, 2, val("v"));
  m.on_decision(1, 3, val("v"));
  EXPECT_EQ(m.groups(), (std::vector<GroupId>{1}));
  EXPECT_EQ(out.size(), 4u);
}

// ---------------------------------------------------------------------------
// Node-level dynamic subscriptions: learners that join a ring when an
// ordered control message tells them to produce identical merged sequences.

TEST_F(MultiRingTest, OrderedJoinKeepsMergedSequencesIdentical) {
  ringpaxos::RingParams p;
  p.lambda = 2000;
  p.skip_interval = 5 * kMillisecond;

  coord::RingConfig r1;
  r1.ring = 1;
  r1.order = {1, 2, 3};
  r1.acceptors = {1, 2, 3};
  registry_->create_ring(r1);
  coord::RingConfig r2;
  r2.ring = 2;
  r2.order = {1, 2, 3};
  r2.acceptors = {1, 2, 3};
  registry_->create_ring(r2);

  // All nodes subscribe ring 1 only; a control payload delivered through
  // ring 1 makes each learner attach ring 2 at that (identical) point.
  auto join_sink = std::make_shared<Sink>(
      [this, p](ProcessId n, GroupId g, InstanceId i, const Payload& pay) {
        deliveries_.push_back({n, g, i, pay.as_string()});
        if (pay.as_string() == "join2") {
          env_.process_as<TestNode>(n)->attach_ring(
              multiring::RingSub{2, p, true});
        }
      });
  multiring::NodeConfig only1;
  only1.rings = {multiring::RingSub{1, p, true}};
  for (ProcessId n : {1, 2, 3}) {
    env_.spawn<TestNode>(n, registry_.get(), only1, join_sink);
  }
  env_.sim().run_for(from_millis(50));

  for (int i = 0; i < 5; ++i) {
    env_.process_as<TestNode>(1)->multicast(1, Payload("a" + std::to_string(i)));
    env_.sim().run_for(from_millis(3));
  }
  env_.process_as<TestNode>(1)->multicast(1, Payload("join2"));
  env_.sim().run_for(from_millis(50));

  // Every node now owns a ring-2 handler and can multicast to it.
  for (int i = 0; i < 10; ++i) {
    const GroupId g = (i % 2) + 1;
    env_.process_as<TestNode>(2)->multicast(g, Payload("b" + std::to_string(i)));
    env_.sim().run_for(from_millis(3));
  }
  env_.sim().run_for(from_millis(1000));

  auto d1 = delivered_at(1);
  auto d2 = delivered_at(2);
  auto d3 = delivered_at(3);
  ASSERT_EQ(d1.size(), 16u);  // 5 + join + 10
  ASSERT_EQ(d2.size(), d1.size());
  ASSERT_EQ(d3.size(), d1.size());
  bool saw_ring2 = false;
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].payload, d2[i].payload) << "diverged at " << i;
    EXPECT_EQ(d1[i].payload, d3[i].payload) << "diverged at " << i;
    EXPECT_EQ(d1[i].group, d2[i].group) << "diverged at " << i;
    saw_ring2 = saw_ring2 || d1[i].group == 2;
  }
  EXPECT_TRUE(saw_ring2) << "ring-2 stream never joined the merge";
  // The registry saw the subscription epoch bump.
  EXPECT_EQ(registry_->subscriptions(1), (std::vector<GroupId>{1, 2}));
  EXPECT_GE(registry_->subscription_epoch(1), 2u);
}

TEST_F(MultiRingTest, OrderedLeaveDetachesHandlerAndKeepsMergeFlowing) {
  build_fig2c();
  env_.sim().run_for(from_millis(50));

  // Nodes 1-3 deliver {1, 2}. A control message on ring 1 detaches ring 2
  // everywhere at the same merged position.
  for (int i = 0; i < 4; ++i) {
    env_.process_as<TestNode>(1)->multicast((i % 2) + 1,
                                            Payload("m" + std::to_string(i)));
    env_.sim().run_for(from_millis(3));
  }
  env_.sim().run_for(from_millis(200));
  for (ProcessId n : {1, 2, 3}) {
    env_.process_as<TestNode>(n)->detach_ring(2);
    EXPECT_EQ(env_.process_as<TestNode>(n)->handler(2), nullptr);
  }

  // Ring 1 keeps delivering even though ring 2's streams are gone.
  const std::size_t before = deliveries_.size();
  for (int i = 0; i < 6; ++i) {
    env_.process_as<TestNode>(1)->multicast(1, Payload("x" + std::to_string(i)));
    env_.sim().run_for(from_millis(3));
  }
  env_.sim().run_for(from_millis(500));
  std::size_t after_ring1 = 0;
  for (const auto& d : deliveries_) {
    if (d.node == 1 && d.payload.rfind("x", 0) == 0) ++after_ring1;
  }
  EXPECT_EQ(after_ring1, 6u);
  EXPECT_GT(deliveries_.size(), before);
  EXPECT_EQ(registry_->subscriptions(1), (std::vector<GroupId>{1}));
}

}  // namespace
}  // namespace mrp
