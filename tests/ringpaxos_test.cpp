// Ring Paxos protocol tests: ordered delivery, agreement across learners,
// skip instances, retransmission, and the coordinator pipeline — all on a
// single ring (atomic broadcast).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "ringpaxos/messages.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

struct Delivery {
  ProcessId node;
  GroupId group;
  InstanceId instance;
  std::string payload;
};

using Sink = std::function<void(ProcessId, GroupId, InstanceId, const Payload&)>;

/// MultiRingNode whose merged deliveries flow into a shared test sink; the
/// sink is part of the spawn arguments, so recovery re-wires it.
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

class RingPaxosTest : public ::testing::Test {
 protected:
  /// Nodes 1..n_nodes in ring order; the first `n_acceptors` of them
  /// (all by default) are acceptors, the rest learners only.
  void build_ring(int n_nodes, ringpaxos::RingParams params,
                  GroupId ring = 0, int n_acceptors = -1) {
    if (n_acceptors < 0) n_acceptors = n_nodes;
    coord::RingConfig cfg;
    cfg.ring = ring;
    for (int i = 0; i < n_nodes; ++i) {
      cfg.order.push_back(i + 1);
      if (i < n_acceptors) cfg.acceptors.insert(i + 1);
    }
    registry_->create_ring(cfg);

    multiring::NodeConfig node_cfg;
    node_cfg.merge_m = 1;
    node_cfg.rings.push_back(multiring::RingSub{ring, params, true});
    for (int i = 0; i < n_nodes; ++i) {
      env_.spawn<TestNode>(i + 1, registry_.get(), node_cfg, sink_);
    }
  }

  std::vector<Delivery> delivered_at(ProcessId node) const {
    std::vector<Delivery> out;
    for (const auto& d : deliveries_) {
      if (d.node == node) out.push_back(d);
    }
    return out;
  }

  sim::Env env_{1234};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender));
  std::vector<Delivery> deliveries_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId g, InstanceId i, const Payload& p) {
        deliveries_.push_back({n, g, i, p.as_string()});
      });
};

TEST_F(RingPaxosTest, SingleValueDeliveredEverywhere) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));  // let phase 1 settle
  env_.process_as<TestNode>(1)->multicast(0, Payload(std::string("v0")));
  env_.sim().run_for(from_millis(100));
  for (ProcessId n : {1, 2, 3}) {
    auto d = delivered_at(n);
    ASSERT_EQ(d.size(), 1u) << "node " << n;
    EXPECT_EQ(d[0].payload, "v0");
  }
}

TEST_F(RingPaxosTest, ProposalFromNonCoordinatorReachesCoordinator) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  // Node 3 is not the coordinator (node 1 is, by election order).
  EXPECT_TRUE(env_.process_as<TestNode>(1)->handler(0)->is_coordinator());
  EXPECT_FALSE(env_.process_as<TestNode>(3)->handler(0)->is_coordinator());
  env_.process_as<TestNode>(3)->multicast(0, Payload(std::string("from3")));
  env_.sim().run_for(from_millis(100));
  EXPECT_EQ(delivered_at(1).size(), 1u);
  EXPECT_EQ(delivered_at(2).size(), 1u);
  EXPECT_EQ(delivered_at(3).size(), 1u);
}

TEST_F(RingPaxosTest, AllLearnersDeliverSameOrder) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  // Interleave proposals from all three nodes.
  for (int i = 0; i < 60; ++i) {
    const ProcessId proposer = (i % 3) + 1;
    env_.process_as<TestNode>(proposer)->multicast(
        0, Payload("v" + std::to_string(i)));
    env_.sim().run_for(from_micros(100));
  }
  env_.sim().run_for(from_millis(500));

  auto d1 = delivered_at(1);
  auto d2 = delivered_at(2);
  auto d3 = delivered_at(3);
  ASSERT_EQ(d1.size(), 60u);
  ASSERT_EQ(d2.size(), 60u);
  ASSERT_EQ(d3.size(), 60u);
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d1[i].payload, d2[i].payload);
    EXPECT_EQ(d1[i].payload, d3[i].payload);
    EXPECT_EQ(d1[i].instance, d2[i].instance);
    EXPECT_EQ(d1[i].instance, d3[i].instance);
  }
}

TEST_F(RingPaxosTest, InstancesAreOrderedAndUnique) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 40; ++i) {
    env_.process_as<TestNode>(1)->multicast(0,
                                            Payload("x" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(500));
  auto d = delivered_at(2);
  ASSERT_EQ(d.size(), 40u);
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_GT(d[i].instance, d[i - 1].instance);
  }
}

TEST_F(RingPaxosTest, ValidityEveryProposalIsDelivered) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  std::set<std::string> proposed;
  for (int i = 0; i < 30; ++i) {
    const std::string v = "p" + std::to_string(i);
    proposed.insert(v);
    env_.process_as<TestNode>((i % 3) + 1)->multicast(0, Payload(v));
  }
  env_.sim().run_for(from_millis(500));
  std::set<std::string> got;
  for (const auto& d : delivered_at(1)) got.insert(d.payload);
  EXPECT_EQ(got, proposed);
}

TEST_F(RingPaxosTest, RateLevelingProducesSkips) {
  ringpaxos::RingParams p;
  p.lambda = 1000;  // 1000 instances/sec
  p.skip_interval = 5 * kMillisecond;
  build_ring(3, p);
  env_.sim().run_for(from_millis(500));
  // No proposals at all: the ring should still decide ~500 skip instances.
  auto* h = env_.process_as<TestNode>(2)->handler(0);
  EXPECT_GE(h->next_delivery(), 300u);
  // Nothing surfaced to the application.
  EXPECT_TRUE(deliveries_.empty());
}

TEST_F(RingPaxosTest, ValuesInterleaveWithSkips) {
  ringpaxos::RingParams p;
  p.lambda = 1000;
  build_ring(3, p);
  env_.sim().run_for(from_millis(50));
  for (int i = 0; i < 20; ++i) {
    env_.process_as<TestNode>(2)->multicast(0, Payload("s" + std::to_string(i)));
    env_.sim().run_for(from_millis(2));
  }
  env_.sim().run_for(from_millis(300));
  EXPECT_EQ(delivered_at(3).size(), 20u);
}

TEST_F(RingPaxosTest, SingleNodeRingDecidesImmediately) {
  build_ring(1, {});
  env_.sim().run_for(from_millis(10));
  env_.process_as<TestNode>(1)->multicast(0, Payload(std::string("solo")));
  env_.sim().run_for(from_millis(50));
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].payload, "solo");
}

TEST_F(RingPaxosTest, FiveNodeRing) {
  build_ring(5, {});
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 25; ++i) {
    env_.process_as<TestNode>((i % 5) + 1)->multicast(
        0, Payload("f" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(500));
  for (ProcessId n = 1; n <= 5; ++n) {
    EXPECT_EQ(delivered_at(n).size(), 25u) << "node " << n;
  }
}

TEST_F(RingPaxosTest, LargePayloadsCirculate) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  Bytes big(32 * 1024, 0xaa);
  env_.process_as<TestNode>(1)->multicast(0, Payload(big));
  env_.sim().run_for(from_millis(200));
  ASSERT_EQ(delivered_at(3).size(), 1u);
  EXPECT_EQ(delivered_at(3)[0].payload.size(), 32u * 1024);
}

TEST_F(RingPaxosTest, AcceptorLogHoldsDecidedRecords) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 10; ++i) {
    env_.process_as<TestNode>(1)->multicast(0, Payload("d" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(300));
  auto* log = env_.process_as<TestNode>(2)->handler(0)->log();
  ASSERT_NE(log, nullptr);
  EXPECT_GE(log->record_count(), 10u);
  int decided = 0;
  for (auto& [inst, rec] : log->range(0, 100)) {
    if (rec.decided) ++decided;
  }
  EXPECT_GE(decided, 10);
}

TEST_F(RingPaxosTest, TrimRemovesOldRecords) {
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 10; ++i) {
    env_.process_as<TestNode>(1)->multicast(0, Payload("t" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(300));
  auto* log = env_.process_as<TestNode>(2)->handler(0)->log();
  const auto before = log->record_count();
  log->trim(5);
  EXPECT_LT(log->record_count(), before);
  EXPECT_EQ(log->trimmed_to(), 5u);
  EXPECT_FALSE(log->get(3).has_value());
  EXPECT_TRUE(log->get(6).has_value());
}

TEST_F(RingPaxosTest, SyncDiskModeDelaysButDelivers) {
  ringpaxos::RingParams p;
  p.write_mode = storage::WriteMode::Sync;
  for (ProcessId n = 1; n <= 3; ++n) {
    env_.set_disk_params(n, 0, sim::DiskParams::ssd());
  }
  build_ring(3, p);
  env_.sim().run_for(from_millis(10));
  env_.process_as<TestNode>(1)->multicast(0, Payload(std::string("sync")));
  env_.sim().run_for(from_millis(100));
  ASSERT_EQ(delivered_at(2).size(), 1u);
}

TEST_F(RingPaxosTest, WindowBackpressureQueuesProposals) {
  ringpaxos::RingParams p;
  p.window = 4;
  build_ring(3, p);
  env_.sim().run_for(from_millis(10));
  for (int i = 0; i < 50; ++i) {
    env_.process_as<TestNode>(1)->multicast(0, Payload("w" + std::to_string(i)));
  }
  env_.sim().run_for(from_millis(1000));
  EXPECT_EQ(delivered_at(1).size(), 50u);
}

TEST_F(RingPaxosTest, PostQuorumAcceptorDoesNotLog) {
  // Ring 1 -> 2 -> 3 -> 4, acceptors {1, 2, 3} (quorum 2), node 4 a learner.
  // Coordinator 1 and acceptor 2 form every Phase 2's quorum, so acceptor 3
  // sees each one already decided: it caches and forwards the value but
  // neither logs nor votes. Every decided value is still in a quorum of
  // logs, which is what retransmission serves a lagging learner from.
  build_ring(4, {}, 0, /*n_acceptors=*/3);
  env_.sim().run_for(from_millis(10));
  ASSERT_TRUE(env_.process_as<TestNode>(1)->handler(0)->is_coordinator());
  int sent = 0;
  auto send = [&](int count, TimeNs gap) {
    for (int i = 0; i < count; ++i) {
      env_.process_as<TestNode>(2)->multicast(
          0, Payload("q" + std::to_string(sent++)));
      env_.sim().run_for(gap);
    }
  };
  send(10, from_millis(1));
  env_.sim().run_for(from_millis(200));
  // The learner drops everything decided while it is down, then catches up
  // by retransmission once fresh decisions show it the gap.
  env_.crash(4);
  env_.sim().run_for(from_millis(300));
  send(10, from_millis(1));
  env_.sim().run_for(from_millis(200));
  env_.recover(4);
  const std::size_t before_recovery = delivered_at(4).size();
  send(10, from_millis(20));
  env_.sim().run_for(from_millis(1000));

  const auto d1 = delivered_at(1);
  ASSERT_EQ(d1.size(), static_cast<std::size_t>(sent));
  for (ProcessId n : {1, 2}) {
    EXPECT_GE(env_.process_as<TestNode>(n)->handler(0)->log()->record_count(),
              static_cast<std::size_t>(sent))
        << "quorum acceptor " << n << " must log every decided value";
  }
  EXPECT_LT(env_.process_as<TestNode>(3)->handler(0)->log()->record_count(),
            static_cast<std::size_t>(sent))
      << "the acceptor past the quorum logged decided values";

  // The recovered learner re-delivers the whole stream from instance 0, in
  // the order every other learner delivered it.
  const auto d4 = delivered_at(4);
  ASSERT_EQ(d4.size() - before_recovery, d1.size());
  for (std::size_t i = 0; i < d1.size(); ++i) {
    EXPECT_EQ(d4[before_recovery + i].payload, d1[i].payload) << "at " << i;
    EXPECT_EQ(d4[before_recovery + i].instance, d1[i].instance) << "at " << i;
  }
  EXPECT_GT(env_.process_as<TestNode>(4)->handler(0)->retransmissions(), 0u);
}

/// Drives retransmission and log-sync catch-up against one acceptor the way
/// a lagging learner and a joining acceptor do, chasing every chunk to the
/// end, and records the size of each reply.
class CatchupProbe final : public runtime::Node {
 public:
  explicit CatchupProbe(runtime::Runtime& rt) : runtime::Node(rt) {}

  void start(ProcessId source, InstanceId hi) {
    source_ = source;
    hi_ = hi;
    request_retransmission(0);
    request_log_sync(0);
  }

  void on_message(ProcessId, const runtime::Message& m) override {
    if (m.kind() == ringpaxos::kMsgRetransmitReply) {
      const auto& r = runtime::msg_cast<ringpaxos::MsgRetransmitReply>(m);
      retransmit_sizes.push_back(r.wire_size());
      for (const auto& [inst, v] : r.decided) retransmitted.push_back(inst);
      if (!r.decided.empty() && r.decided.back().first + 1 < hi_) {
        request_retransmission(r.decided.back().first + 1);
      }
    } else if (m.kind() == ringpaxos::kMsgLogSyncReply) {
      const auto& r = runtime::msg_cast<ringpaxos::MsgLogSyncReply>(m);
      log_sync_sizes.push_back(r.wire_size());
      for (const paxos::Promise& p : r.records) synced.push_back(p.instance);
      if (!r.done) request_log_sync(r.next);
      log_sync_done = r.done;
    }
  }

  std::vector<std::size_t> retransmit_sizes, log_sync_sizes;
  std::vector<InstanceId> retransmitted, synced;
  bool log_sync_done = false;

 private:
  void request_retransmission(InstanceId lo) {
    auto req = std::make_shared<ringpaxos::MsgRetransmitReq>();
    req->ring = 0;
    req->lo = lo;
    req->hi = hi_;
    send(source_, req);
  }
  void request_log_sync(InstanceId from) {
    auto req = std::make_shared<ringpaxos::MsgLogSyncReq>();
    req->ring = 0;
    req->seq = 1;
    req->from = from;
    send(source_, req);
  }

  ProcessId source_ = kNoProcess;
  InstanceId hi_ = 0;
};

TEST_F(RingPaxosTest, CatchupRepliesStayUnderByteBudget) {
  // 20,000 decided instances of 32 KiB (~640 MiB of log) fit the default
  // max_retransmit_instances, so the count bound alone would put the whole
  // log in one reply, far above the real transport's 64 MiB frame limit.
  // The byte budget splits it into chunks of a few MiB instead.
  constexpr int kInstances = 20'000;
  constexpr std::size_t kFrameLimit = 64u << 20;
  std::size_t delivered = 0;
  *sink_ = [&delivered](ProcessId n, GroupId, InstanceId, const Payload&) {
    if (n == 1) ++delivered;  // the payloads themselves are not copied
  };
  build_ring(3, {});
  env_.sim().run_for(from_millis(10));
  const Payload big(Bytes(32 * 1024, 0x5a));  // one shared buffer
  for (int batch = 0; batch < kInstances / 1000; ++batch) {
    for (int i = 0; i < 1000; ++i) {
      env_.process_as<TestNode>(1)->multicast(0, big);
    }
    env_.sim().run_for(from_millis(100));
  }
  env_.sim().run_for(from_seconds(2));
  ASSERT_EQ(delivered, static_cast<std::size_t>(kInstances));

  auto* probe = env_.spawn<CatchupProbe>(99);
  probe->start(/*source=*/2, kInstances);
  env_.sim().run_for(from_seconds(30));

  // Every instance exactly once, in order, through both paths.
  ASSERT_EQ(probe->retransmitted.size(), static_cast<std::size_t>(kInstances));
  ASSERT_TRUE(probe->log_sync_done);
  ASSERT_EQ(probe->synced.size(), static_cast<std::size_t>(kInstances));
  for (int i = 0; i < kInstances; ++i) {
    ASSERT_EQ(probe->retransmitted[static_cast<std::size_t>(i)],
              static_cast<InstanceId>(i));
    ASSERT_EQ(probe->synced[static_cast<std::size_t>(i)],
              static_cast<InstanceId>(i));
  }
  for (const auto* sizes : {&probe->retransmit_sizes, &probe->log_sync_sizes}) {
    EXPECT_GT(sizes->size(), 10u) << "the log was not split into chunks";
    for (std::size_t s : *sizes) EXPECT_LT(s, kFrameLimit / 4);
  }
}

}  // namespace
}  // namespace mrp
