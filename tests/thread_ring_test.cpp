// Loopback ring smoke test: the same protocol objects the sim tests drive —
// Registry, three ReplicaNodes, a closed-loop ClientNode — deployed on the
// ThreadRuntime backend: one event-loop thread per process, every message
// serialized through net/wire onto real loopback TCP sockets.
//
// This is deliberately a smoke test (does consensus make progress, is
// execution exactly-once, do all replicas converge), not a perf test —
// fig11_realnet covers throughput/latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/registry.hpp"
#include "net/wire.hpp"
#include "runtime/thread_runtime.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

class CounterSm final : public smr::StateMachine {
 public:
  Bytes apply(GroupId, const Bytes& op) override {
    if (mrp::to_string(op) == "inc") ++value_;
    return to_bytes(std::to_string(value_));
  }
  Bytes snapshot() const override { return to_bytes(std::to_string(value_)); }
  void restore(const Bytes& s) override {
    value_ = std::stoll(mrp::to_string(s));
  }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class ThreadRingTest : public ::testing::Test {
 protected:
  static constexpr GroupId kRing = 0;
  static constexpr ProcessId kClient = 500;

  runtime::ThreadClusterOptions cluster_options() {
    runtime::ThreadClusterOptions o;
    o.seed = 99;
    o.codec = net::wire_codec();
    return o;
  }

  /// Polls `pred` (cheap, cross-thread safe) until it holds or `seconds` of
  /// real time elapse.
  static bool wait_for(const std::function<bool()>& pred, int seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }
};

TEST_F(ThreadRingTest, ThreeProcessRingDecidesAndConverges) {
  runtime::ThreadCluster cluster(cluster_options());

  // The registry is an oracle: timers + outgoing watch notifications, no
  // inbound handler. Protocol processes call into it directly (its methods
  // are mutex-guarded for exactly this deployment).
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3};
  cfg.acceptors = {1, 2, 3};
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 25;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 1;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [&done](std::uint32_t) -> std::optional<smr::Request> {
              if (done.load() >= kTarget) return std::nullopt;
              return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "ring made no progress over loopback TCP: " << done.load() << "/"
      << kTarget << " completions";

  // Exactly-once execution: every replica's counter converges to the number
  // of completed commands (retries deduplicate server-side).
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed (dedup broken)";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, AtomicMultiGroupOverLoopbackTcp) {
  // Two rings, every process subscribing both: an atomic multi-group
  // command travels as one copy per ring over real TCP, is gathered at each
  // replica and executes exactly once — interleaved with single-ring
  // commands from the same sessions (the overtaking case the exact dedup
  // exists for), all on the threaded backend under TSan.
  static constexpr GroupId kRingB = 1;
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  for (GroupId g : {kRing, kRingB}) {
    coord::RingConfig cfg;
    cfg.ring = g;
    cfg.order = {1, 2, 3};
    cfg.acceptors = {1, 2, 3};
    registry.create_ring(cfg);
  }

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  node_cfg.rings.push_back(multiring::RingSub{kRingB, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 30;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 2;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              // Bound the *issued* count: with two workers a done-count
              // bound would let one extra request slip in flight.
              if (n >= kTarget) return std::nullopt;
              const int k = n++;
              smr::Request req;
              req.op = to_bytes("inc");
              if (k % 3 == 0) {
                // Atomic multi-group: one copy per ring, same identity.
                req.sends.push_back(smr::Request::Send{kRing, {1, 2, 3}});
                req.sends.push_back(smr::Request::Send{kRingB, {1, 2, 3}});
                req.atomic = true;
              } else {
                req.sends.push_back(
                    smr::Request::Send{k % 3 == 1 ? kRing : kRingB, {1, 2, 3}});
              }
              req.expected_partitions = 1;  // all replicas answer with tag 0
              return req;
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "multi-group mix stalled over loopback TCP: " << done.load() << "/"
      << kTarget << " completions";

  // Exactly-once: a command addressed to both rings is delivered twice per
  // replica but must bump the counter once, so every replica converges to
  // exactly the completion count.
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r
          << " over-executed a multi-group command (gather dedup broken)";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, TwoRingMergeDoesNotWaitForDelta) {
  // Two rings with rate leveling on a long Delta; every command goes to
  // ring 0 and ring 1 stays idle. Each command leaves the merge stalled on
  // ring 1 until ring 1 decides more instances: waiting for its next Delta
  // tick costs a closed-loop client nearly a whole Delta per command, a
  // demand-driven skip one ring pass. The margin below leaves room for
  // sanitizer builds. Exactly-once execution holds throughout.
  static constexpr GroupId kIdleRing = 1;
  static constexpr TimeNs kDelta = 100 * kMillisecond;
  std::mutex mu;  // guards latencies (filled on the client's loop thread)
  std::vector<TimeNs> latencies;
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);
  for (GroupId g : {kRing, kIdleRing}) {
    coord::RingConfig cfg;
    cfg.ring = g;
    cfg.order = {1, 2, 3};
    cfg.acceptors = {1, 2, 3};
    registry.create_ring(cfg);
  }
  ringpaxos::RingParams params;
  params.lambda = 2000;
  params.skip_interval = kDelta;
  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, params, true});
  node_cfg.rings.push_back(multiring::RingSub{kIdleRing, params, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 40;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 1;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              if (n++ >= kTarget) return std::nullopt;
              return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn([&](const smr::Completion& c) {
          {
            std::lock_guard<std::mutex> lock(mu);
            latencies.push_back(c.latency);
          }
          done.fetch_add(1);
        }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "two-ring merge stalled over loopback TCP: " << done.load() << "/"
      << kTarget << " completions";
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed (dedup broken)";
    });
  }
  cluster.stop();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(latencies.size(), static_cast<std::size_t>(kTarget));
  std::sort(latencies.begin(), latencies.end());
  EXPECT_LT(latencies[latencies.size() / 2], kDelta / 5)
      << "median command latency waits for the idle ring's Delta tick";
}

TEST_F(ThreadRingTest, AutoHealAfterHardKillOverLoopbackTcp) {
  // The full self-healing sequence on real threads + sockets: one acceptor's
  // loop thread is permanently killed mid-load (ThreadCluster::stop_local —
  // its peers see a dead socket, the registry's failure detector sees a dead
  // heartbeat), the registry drafts the standby, the standby catches up from
  // the union of the surviving acceptors' logs over TCP and activates, and
  // the closed loop keeps completing increments exactly once throughout.
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  cfg.standbys = {4};  // member + learner from birth, acceptor on demand
  cfg.fd.auto_heal = true;
  cfg.fd.suspect_grace = 300 * kMillisecond;
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3, 4}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 80;
  std::atomic<int> done{0};
  cluster.add_local(kClient, [&done](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 2;
    opts.retry_timeout = kSecond;
    return std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              if (n >= kTarget) return std::nullopt;
              ++n;
              // Address the replicas that stay up; 2 serves as a pure
              // acceptor until it is killed.
              return smr::Request::single(kRing, {1, 3, 4}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= 20; }, 60))
      << "no progress before the kill";

  cluster.stop_local(2);  // permanent: joined, peers see it dead

  ASSERT_TRUE(wait_for([&registry] { return registry.heal_count() >= 1; }, 30))
      << "registry never drafted the standby after the hard kill";
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << "closed loop stalled across the heal: " << done.load() << "/"
      << kTarget;

  // The drafted standby is a live acceptor of the healed basis...
  const coord::RingView view = registry.current_view(kRing);
  EXPECT_EQ(view.configured_acceptors, (std::vector<ProcessId>{1, 3, 4}));
  EXPECT_FALSE(view.contains(2));
  cluster.call(4, [](runtime::Node* n) {
    auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
    EXPECT_TRUE(replica.handler(kRing)->is_acceptor())
        << "standby never activated";
  });
  // ...and execution stayed exactly-once through kill + view change: every
  // survivor converges to exactly the completion count.
  for (ProcessId r : {1, 3, 4}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge after the heal";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed across the heal";
    });
  }
  cluster.stop();
}

TEST_F(ThreadRingTest, MultiWorkerLoadMakesProgress) {
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3};
  cfg.acceptors = {1, 2, 3};
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  smr::ClientNode* client = nullptr;
  cluster.add_local(kClient, [&client](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 8;
    opts.retry_timeout = kSecond;
    auto node = std::make_unique<smr::ClientNode>(
        rt, opts,
        smr::ClientNode::NextFn([](std::uint32_t) {
          return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
        }),
        smr::ClientNode::DoneFn(nullptr));
    client = node.get();
    return node;
  });

  cluster.start();
  ASSERT_TRUE(wait_for(
      [&cluster, &client] {
        std::uint64_t completed = 0;
        cluster.call(kClient, [&](runtime::Node*) {
          completed = client->completed();
        });
        return completed >= 200;
      },
      60))
      << "8-worker closed loop stalled";
  cluster.call(kClient, [&client](runtime::Node*) { client->stop(); });
  cluster.stop();
}

/// A ClientNode that records who answered each command (touched only on the
/// client's loop thread; read through ThreadCluster::call).
class TappedClient final : public smr::ClientNode {
 public:
  using Repliers =
      std::map<std::pair<smr::SessionId, std::uint64_t>, std::vector<ProcessId>>;
  using ClientNode::ClientNode;

  void on_message(ProcessId from, const runtime::Message& m) override {
    if (m.kind() == smr::kMsgClientReply) {
      const auto& r = runtime::msg_cast<smr::MsgClientReply>(m);
      repliers_[{r.session, r.seq}].push_back(from);
    }
    ClientNode::on_message(from, m);
  }
  const Repliers& repliers() const { return repliers_; }

 private:
  Repliers repliers_;
};

TEST_F(ThreadRingTest, OneReplyPerCommandOverLoopbackTcp) {
  // Every replica executes every command, but only replica 2 — whose vote
  // completes the quorum after coordinator 1's — answers the client.
  runtime::ThreadCluster cluster(cluster_options());
  coord::Registry registry(cluster.add_oracle(coord::kRegistrySender),
                           50 * kMillisecond);
  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3};
  cfg.acceptors = {1, 2, 3};
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3}) {
    cluster.add_local(r, [&registry, node_cfg](runtime::Runtime& rt) {
      return std::make_unique<smr::ReplicaNode>(
          rt, &registry, node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          smr::ReplicaOptions{});
    });
  }

  static constexpr int kTarget = 200;
  std::atomic<int> done{0};
  TappedClient* client = nullptr;
  cluster.add_local(kClient, [&done, &client](runtime::Runtime& rt) {
    smr::ClientNode::Options opts;
    opts.workers = 4;
    opts.retry_timeout = 20 * kSecond;  // a retry would add cached replies
    auto node = std::make_unique<TappedClient>(
        rt, opts,
        smr::ClientNode::NextFn(
            [n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              if (n >= kTarget) return std::nullopt;
              ++n;
              return smr::Request::single(kRing, {1, 2, 3}, to_bytes("inc"));
            }),
        smr::ClientNode::DoneFn(
            [&done](const smr::Completion&) { done.fetch_add(1); }));
    client = node.get();
    return node;
  });

  cluster.start();
  ASSERT_TRUE(wait_for([&done] { return done.load() >= kTarget; }, 60))
      << done.load() << "/" << kTarget << " completions";
  for (ProcessId r : {1, 2, 3}) {
    ASSERT_TRUE(wait_for(
        [&cluster, r] {
          std::int64_t v = 0;
          cluster.call(r, [&v](runtime::Node* n) {
            auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
            v = dynamic_cast<CounterSm&>(replica.state_machine()).value();
          });
          return v >= kTarget;
        },
        30))
        << "replica " << r << " did not converge";
    cluster.call(r, [r](runtime::Node* n) {
      auto& replica = dynamic_cast<smr::ReplicaNode&>(*n);
      EXPECT_EQ(dynamic_cast<CounterSm&>(replica.state_machine()).value(),
                kTarget)
          << "replica " << r << " over-executed";
    });
  }
  cluster.call(kClient, [&client](runtime::Node*) {
    EXPECT_EQ(client->retries(), 0u);
    EXPECT_EQ(client->repliers().size(), static_cast<std::size_t>(kTarget));
    for (const auto& [key, from] : client->repliers()) {
      ASSERT_EQ(from.size(), 1u) << "seq " << key.second;
      EXPECT_EQ(from[0], 2) << "seq " << key.second;
    }
  });
  cluster.stop();
}

}  // namespace
}  // namespace mrp
