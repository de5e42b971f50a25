// Regression tests for protocol bugs found while reproducing the paper's
// figures. Each test documents the original failure mode.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "multiring/merger.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"
#include "storage/acceptor_log.hpp"

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

// Bug: the quorum-crossing acceptor emitted the Decision *before*
// forwarding the Phase 2 carrying the value; every downstream member
// received decisions it could not resolve and limped along on gap
// retransmissions (~400 ms latency instead of ~1 ms, 20x throughput loss).
// Fixed by forwarding Phase 2 first (FIFO links) plus a pending-decision
// set for the general race.
TEST(Regression, DecisionsNeverBeatValuesOnTheRing) {
  sim::Env env(1);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender));
  coord::RingConfig rc;
  rc.ring = 0;
  rc.order = {1, 2, 3, 4};  // includes a learner-only member
  rc.acceptors = {1, 2, 3};
  registry.create_ring(rc);

  std::vector<std::string> delivered;
  auto sink = std::make_shared<Sink>(
      [&](ProcessId n, GroupId, InstanceId, const Payload& p) {
        if (n == 4) delivered.push_back(p.as_string());
      });
  multiring::NodeConfig cfg;
  cfg.rings.push_back(multiring::RingSub{0, {}, true});
  for (ProcessId n : {1, 2, 3, 4}) {
    env.spawn<TestNode>(n, &registry, cfg, sink);
  }
  env.sim().run_for(from_millis(10));
  for (int i = 0; i < 200; ++i) {
    env.process_as<TestNode>(1)->multicast(0, Payload("v" + std::to_string(i)));
    env.sim().run_for(from_micros(200));
  }
  env.sim().run_for(from_millis(200));
  EXPECT_EQ(delivered.size(), 200u);
  // In a failure-free run, delivery must never need retransmission.
  for (ProcessId n : {1, 2, 3, 4}) {
    EXPECT_EQ(env.process_as<TestNode>(n)->handler(0)->retransmissions(), 0u)
        << "node " << n << " fell back to retransmission";
  }
}

// Bug: a checkpoint tuple can point into the middle of a skip range; the
// merger, the ring handler's ordered-delivery path, and the acceptor log's
// range query all dropped the covering range, wedging recovery.
TEST(Regression, AcceptorLogRangeIncludesStraddlingSkipRecord) {
  sim::Env env;
  struct Noop : runtime::Node {
    using runtime::Node::Node;
    void on_message(ProcessId, const runtime::Message&) override {}
  };
  env.spawn<Noop>(1);
  storage::AcceptorLog log(env.runtime_for(1), 0, storage::WriteMode::Memory);
  paxos::LogRecord rec;
  rec.vround = 1;
  rec.value = paxos::Value::skip({1, 1}, 40);  // covers [5, 45)
  rec.decided = true;
  log.accept(5, rec, nullptr);
  auto out = log.range(20, 60);  // starts inside the range
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, 5u);
}

TEST(Regression, MergerTrimsStraddlingSkipRange) {
  std::vector<InstanceId> delivered;
  multiring::DeterministicMerger m(
      {1}, 1, [&](GroupId, InstanceId i, const paxos::Value&) {
        delivered.push_back(i);
      });
  // Install a tuple pointing into the middle of a future skip range.
  m.install_tuple({{1, 20}});
  // The ring replays the covering range [5, 45) and then a value at 45.
  m.on_decision(1, 5, paxos::Value::skip({1, 1}, 40));
  paxos::Value v;
  v.payload = Payload(std::string("x"));
  m.on_decision(1, 45, v);
  EXPECT_EQ(delivered, std::vector<InstanceId>{45});
  EXPECT_EQ(m.skipped_instances(), 25u);  // only [20, 45) consumed
  EXPECT_EQ(m.tuple().at(1), 46u);
}

// Bug: Checkpointer::install raised the ring handlers' delivery floors
// before moving the merger's cursors; a buffered decision flushed into a
// merger still positioned at the old tuple and tripped the contiguity
// check. This end-to-end test crashes+recovers replicas of a store built
// on *rate-leveled* rings (skips exercise all the straddle paths).
TEST(Regression, RecoveryWithRateLeveledRingsConverges) {
  sim::Env env(77);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so;
  so.partitions = 2;
  so.global_ring = true;
  so.ring_params.lambda = 3000;
  so.ring_params.skip_interval = 5 * kMillisecond;
  so.ring_params.gap_timeout = 20 * kMillisecond;
  so.global_params = so.ring_params;
  so.replica_options.checkpoint.interval = 300 * kMillisecond;
  so.replica_options.trim.interval = 600 * kMillisecond;
  auto dep = build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);

  auto* c = env.spawn<smr::ClientNode>(
      900, smr::ClientNode::Options{4, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [&helper, n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
            const int key = n % 128;
            ++n;
            return helper.insert("rk" + std::to_string(key),
                                 to_bytes(std::to_string(n)));
          }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(2));
  const ProcessId victim = dep.replicas[1][2];
  env.crash(victim);
  env.sim().run_for(from_seconds(3));  // checkpoints + trims while down
  env.recover(victim);
  env.sim().run_for(from_seconds(3));
  c->stop();
  env.sim().run_for(from_seconds(3));

  auto digest = [&](ProcessId r) {
    auto* rep = env.process_as<smr::ReplicaNode>(r);
    return dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine())
        .digest();
  };
  EXPECT_EQ(digest(dep.replicas[1][0]), digest(dep.replicas[1][1]));
  EXPECT_EQ(digest(dep.replicas[1][0]), digest(victim))
      << "recovered replica diverged (straddle-path regression)";
}

// Chunked retransmission: an acceptor serves at most
// max_retransmit_instances per request and the learner chases the rest.
TEST(Regression, RetransmissionIsChunked) {
  sim::Env env(5);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  coord::RingConfig rc;
  rc.ring = 0;
  rc.order = {1, 2, 3};
  rc.acceptors = {1, 2, 3};
  registry.create_ring(rc);

  std::vector<InstanceId> at3;
  auto sink = std::make_shared<Sink>(
      [&](ProcessId n, GroupId, InstanceId i, const Payload&) {
        if (n == 3) at3.push_back(i);
      });
  ringpaxos::RingParams p;
  p.gap_timeout = 20 * kMillisecond;
  p.max_retransmit_instances = 10;  // tiny chunks
  multiring::NodeConfig cfg;
  cfg.rings.push_back(multiring::RingSub{0, p, true});
  for (ProcessId n : {1, 2, 3}) env.spawn<TestNode>(n, &registry, cfg, sink);
  env.sim().run_for(from_millis(10));

  env.crash(3);
  env.sim().run_for(from_millis(100));
  for (int i = 0; i < 80; ++i) {
    env.process_as<TestNode>(1)->multicast(0, Payload("c" + std::to_string(i)));
  }
  env.sim().run_for(from_millis(300));
  env.recover(3);
  // Fresh traffic reveals the gap; recovery needs ceil(80/10)+ chunks.
  for (int i = 80; i < 85; ++i) {
    env.process_as<TestNode>(1)->multicast(0, Payload("c" + std::to_string(i)));
    env.sim().run_for(from_millis(50));
  }
  env.sim().run_for(from_seconds(2));
  EXPECT_GE(at3.size(), 85u);
  EXPECT_GE(env.process_as<TestNode>(3)->handler(0)->retransmissions(), 8u);
}

// Semi-open-loop client pacing: with think_time set, offered load stays at
// workers/think_time even when the service is far faster.
TEST(Regression, ClientThinkTimePacesLoad) {
  sim::Env env(6);
  struct Echo : runtime::Node {
    using runtime::Node::Node;
    void on_message(ProcessId, const runtime::Message& m) override {
      const auto& req = runtime::msg_cast<smr::MsgClientRequest>(m);
      auto reply = std::make_shared<smr::MsgClientReply>();
      reply->session = req.command.session;
      reply->seq = req.command.seq;
      send(smr::session_client(req.command.session), reply);
    }
  };
  env.spawn<Echo>(1);
  smr::ClientNode::Options opts;
  opts.workers = 10;
  opts.think_time = 100 * kMillisecond;  // 10 workers -> 100 ops/s
  auto* c = env.spawn<smr::ClientNode>(
      900, opts,
      smr::ClientNode::NextFn([](std::uint32_t) -> std::optional<smr::Request> {
        return smr::Request::single(0, {1}, to_bytes("ping"));
      }),
      smr::ClientNode::DoneFn(nullptr));
  env.sim().run_for(from_seconds(10));
  EXPECT_NEAR(static_cast<double>(c->completed()), 1000.0, 30.0);
}

}  // namespace
}  // namespace mrp
