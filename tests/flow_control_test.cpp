// End-to-end flow control: the deterministic jittered-backoff helper, the
// bounded-queue gauge, typed stable storage, the replica admission window
// (MsgClientBusy pushback), the coordinator's bounded pending queue +
// adaptive inflight window, the client outstanding-request window, and
// delivery-order preservation under shedding.
//
// The overload property tests run a small ring under offered load far beyond
// its admission caps and continuously sample every queue: no bounded queue
// may ever exceed its configured cap, and every acknowledged command must be
// executed exactly once on every replica despite MsgBusy churn.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.hpp"
#include "common/metrics.hpp"
#include "coord/registry.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

// ---------------------------------------------------------------------------
// jittered_backoff: a pure function of (attempt, params, rng draw).

TEST(JitteredBackoff, DeterministicPerRngState) {
  BackoffParams p{kMillisecond, 100 * kMillisecond, 0.5};
  Rng a(42), b(42);
  for (std::uint32_t attempt = 1; attempt <= 24; ++attempt) {
    EXPECT_EQ(jittered_backoff(attempt, p, a), jittered_backoff(attempt, p, b))
        << "attempt " << attempt;
  }
}

TEST(JitteredBackoff, StaysWithinJitterBandAndCap) {
  BackoffParams p{kMillisecond, 64 * kMillisecond, 0.5};
  Rng rng(7);
  for (std::uint32_t attempt = 1; attempt <= 30; ++attempt) {
    TimeNs term = kMillisecond;
    for (std::uint32_t i = 1; i < attempt && term < p.cap; ++i) term *= 2;
    term = std::min(term, p.cap);
    const TimeNs d = jittered_backoff(attempt, p, rng);
    EXPECT_GE(d, term - term / 2) << "attempt " << attempt;
    EXPECT_LE(d, term) << "attempt " << attempt;
    EXPECT_LE(d, p.cap);
  }
}

TEST(JitteredBackoff, ZeroJitterIsExactExponential) {
  BackoffParams p{2 * kMillisecond, 16 * kMillisecond, 0.0};
  Rng rng(1);
  EXPECT_EQ(jittered_backoff(1, p, rng), 2 * kMillisecond);
  EXPECT_EQ(jittered_backoff(2, p, rng), 4 * kMillisecond);
  EXPECT_EQ(jittered_backoff(3, p, rng), 8 * kMillisecond);
  EXPECT_EQ(jittered_backoff(4, p, rng), 16 * kMillisecond);
  EXPECT_EQ(jittered_backoff(5, p, rng), 16 * kMillisecond);  // capped
  EXPECT_EQ(jittered_backoff(60, p, rng), 16 * kMillisecond);  // no overflow
}

// ---------------------------------------------------------------------------
// QueueStats

TEST(QueueStats, TracksHighWatermarkAndShedSplit) {
  QueueStats q;
  q.on_admit(1);
  q.on_admit(2);
  q.on_admit(5);
  q.on_admit(3);
  q.on_shed();
  q.on_shed();
  EXPECT_EQ(q.high_watermark(), 5u);
  EXPECT_EQ(q.admitted(), 4u);
  EXPECT_EQ(q.shed(), 2u);
}

// ---------------------------------------------------------------------------
// Env::stable type safety

TEST(EnvStable, SameTypeReuseReturnsSameSlot) {
  sim::Env env(1);
  env.stable<int>(1, "slot") = 7;
  EXPECT_EQ(env.stable<int>(1, "slot"), 7);
  // Same key under a different process id is a different slot.
  EXPECT_EQ(env.stable<int>(2, "slot"), 0);
}

TEST(EnvStableDeathTest, DifferentTypeReuseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Env env(1);
  env.stable<int>(1, "slot") = 7;
  EXPECT_DEATH(env.stable<double>(1, "slot"),
               "stable slot reused with a different type");
}

// ---------------------------------------------------------------------------
// Overload properties against a live ring

/// State machine that counts executions per op payload: any duplicate
/// execution of an acked command is immediately visible.
class CountingSm final : public smr::StateMachine {
 public:
  Bytes apply(GroupId, const Bytes& op) override {
    ++counts_[mrp::to_string(op)];
    return to_bytes("ok");
  }
  Bytes snapshot() const override {
    std::string s;
    for (const auto& [k, n] : counts_) {
      s += k + "=" + std::to_string(n) + ";";
    }
    return to_bytes(s);
  }
  void restore(const Bytes& b) override {
    counts_.clear();
    const std::string s = mrp::to_string(b);
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t eq = s.find('=', pos);
      const std::size_t semi = s.find(';', eq);
      counts_[s.substr(pos, eq - pos)] =
          std::stoull(s.substr(eq + 1, semi - eq - 1));
      pos = semi + 1;
    }
  }
  const std::map<std::string, std::uint64_t>& counts() const { return counts_; }

 private:
  std::map<std::string, std::uint64_t> counts_;
};

/// Periodically runs a check callback on the live deployment (queue-cap
/// sampling between events).
class Prober : public runtime::Node {
 public:
  explicit Prober(runtime::Runtime& rt) : runtime::Node(rt) {}
  void set_check(std::function<void()> fn) { check_ = std::move(fn); }
  void on_start() override {
    every(500 * kMicrosecond, [this] {
      if (check_) check_();
    });
  }
  void on_message(ProcessId, const runtime::Message&) override {}

 private:
  std::function<void()> check_;
};

class FlowControlTest : public ::testing::Test {
 protected:
  static constexpr GroupId kRing = 0;
  static constexpr ProcessId kClient = 500;
  static constexpr ProcessId kProber = 600;

  void build(smr::ReplicaOptions ropts, ringpaxos::RingParams params,
             std::vector<GroupId> rings = {kRing}) {
    for (GroupId g : rings) {
      coord::RingConfig cfg;
      cfg.ring = g;
      cfg.order = {1, 2, 3};
      cfg.acceptors = {1, 2, 3};
      registry_->create_ring(cfg);
    }
    multiring::NodeConfig node_cfg;
    for (GroupId g : rings) {
      node_cfg.rings.push_back(multiring::RingSub{g, params, true});
    }
    for (ProcessId r : {1, 2, 3}) {
      env_.spawn<smr::ReplicaNode>(
          r, registry_.get(), node_cfg,
          smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CountingSm>();
          }),
          ropts);
    }
  }

  smr::ReplicaNode* replica(ProcessId r) {
    return env_.process_as<smr::ReplicaNode>(r);
  }
  const CountingSm& counting(ProcessId r) {
    return dynamic_cast<const CountingSm&>(replica(r)->state_machine());
  }

  sim::Env env_{77};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
};

TEST_F(FlowControlTest, BoundedQueuesNeverExceedCapsUnderOverload) {
  // Tight caps, slow synchronous acceptor logs: offered load (32 closed-loop
  // workers) far exceeds what the ring drains, so every layer must shed.
  smr::ReplicaOptions ropts;
  ropts.admission_commands = 8;
  ropts.admission_bytes = 8 * 1024;
  ropts.busy_retry_hint = 2 * kMillisecond;
  ringpaxos::RingParams params;
  params.window = 8;
  params.min_window = 2;
  params.max_pending = 16;
  params.write_mode = storage::WriteMode::Sync;
  for (ProcessId r : {1, 2, 3}) {
    env_.set_disk_params(r, 0, sim::DiskParams{from_millis(2), 1e18});
  }
  build(ropts, params);

  auto acked = std::make_shared<std::set<std::string>>();
  smr::ClientNode::Options copts;
  copts.workers = 32;
  copts.retry_timeout = 200 * kMillisecond;
  copts.max_outstanding = 16;
  auto* client = env_.spawn<smr::ClientNode>(
      kClient, copts,
      smr::ClientNode::NextFn([n = 0](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        smr::Request r;
        r.sends.push_back(smr::Request::Send{kRing, {1, 2, 3}});
        r.op = to_bytes("op" + std::to_string(n++));
        return r;
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        acked->insert(mrp::to_string(c.op));
      }));

  // Sample every queue between events: caps must hold at every instant, not
  // just at the end.
  auto* prober = env_.spawn<Prober>(kProber);
  std::uint64_t samples = 0;
  prober->set_check([&] {
    ++samples;
    for (ProcessId r : {1, 2, 3}) {
      const auto adm = replica(r)->admission_stats(kRing);
      ASSERT_LE(adm.outstanding_commands, ropts.admission_commands);
      ASSERT_LE(adm.outstanding_bytes, ropts.admission_bytes);
      const auto flow = replica(r)->handler(kRing)->flow_stats();
      ASSERT_LE(flow.pending_depth, params.max_pending);
      ASSERT_LE(flow.inflight_depth, params.window);
      ASSERT_LE(flow.window, params.window);
    }
  });

  env_.sim().run_for(from_seconds(3));
  client->stop();
  env_.sim().run_for(from_seconds(3));  // drain: admitted commands resolve

  EXPECT_GT(samples, 1000u);
  EXPECT_GT(client->completed(), 50u);
  // Overload really pushed back somewhere.
  std::uint64_t replica_sheds = 0;
  for (ProcessId r : {1, 2, 3}) {
    replica_sheds += replica(r)->admission_stats(kRing).shed;
  }
  EXPECT_GT(client->busy_pushbacks(), 0u);
  EXPECT_GT(replica_sheds, 0u);
  // Final high watermarks stayed within the caps too.
  for (ProcessId r : {1, 2, 3}) {
    EXPECT_LE(replica(r)->admission_stats(kRing).commands_hwm,
              ropts.admission_commands);
    EXPECT_LE(replica(r)->handler(kRing)->flow_stats().pending_hwm,
              params.max_pending);
    EXPECT_LE(replica(r)->handler(kRing)->flow_stats().inflight_hwm,
              params.window);
  }

  // Every acknowledged command executed exactly once on every replica, and
  // the replicas agree bit-for-bit.
  ASSERT_FALSE(acked->empty());
  for (const std::string& op : *acked) {
    for (ProcessId r : {1, 2, 3}) {
      auto it = counting(r).counts().find(op);
      ASSERT_TRUE(it != counting(r).counts().end())
          << "acked " << op << " missing at replica " << r;
      EXPECT_EQ(it->second, 1u)
          << "acked " << op << " executed " << it->second
          << " times at replica " << r;
    }
  }
  EXPECT_EQ(counting(1).counts(), counting(2).counts());
  EXPECT_EQ(counting(2).counts(), counting(3).counts());
}

TEST_F(FlowControlTest, ClientWindowCapsOutstandingRequests) {
  build(smr::ReplicaOptions{}, ringpaxos::RingParams{});

  smr::ClientNode::Options copts;
  copts.workers = 16;
  copts.retry_timeout = kSecond;
  copts.max_outstanding = 4;
  std::uint64_t issued = 0, done = 0;
  std::uint32_t max_in_flight = 0;
  smr::ClientNode* client = env_.spawn<smr::ClientNode>(
      kClient, copts,
      smr::ClientNode::NextFn([&](std::uint32_t) -> std::optional<smr::Request> {
        ++issued;
        smr::Request r;
        r.sends.push_back(smr::Request::Send{kRing, {1, 2, 3}});
        r.op = to_bytes("w" + std::to_string(issued));
        return r;
      }),
      smr::ClientNode::DoneFn([&](const smr::Completion&) { ++done; }));

  std::size_t max_parked = 0;
  auto* prober = env_.spawn<Prober>(kProber);
  prober->set_check([&] {
    ASSERT_LE(client->outstanding(), copts.max_outstanding);
    max_in_flight = std::max(max_in_flight, client->outstanding());
    max_parked = std::max(max_parked, client->parked());
    ASSERT_LE(issued - done, static_cast<std::uint64_t>(copts.max_outstanding));
  });

  env_.sim().run_for(from_seconds(2));
  client->stop();
  env_.sim().run_for(from_seconds(1));

  EXPECT_GT(done, 100u);
  EXPECT_EQ(max_in_flight, copts.max_outstanding);  // the window filled up
  // 12 of the 16 workers were parked while the window was full.
  EXPECT_GE(max_parked, 12u);
}

TEST_F(FlowControlTest, MergedDeliveryOrderPreservedUnderShedding) {
  // Two subscribed groups; group 0's admission window is tiny so its
  // commands are shed constantly while group 1 flows freely. Shedding
  // happens strictly before ordering, so every replica must still deliver
  // the identical merged sequence, with per-group instances monotone.
  smr::ReplicaOptions ropts;
  ropts.admission_commands = 2;
  ringpaxos::RingParams params;
  params.window = 16;
  params.max_pending = 32;
  build(ropts, params, {0, 1});

  std::map<ProcessId, std::vector<std::pair<GroupId, InstanceId>>> seen;
  for (ProcessId r : {1, 2, 3}) {
    replica(r)->set_delivery_observer(
        [&seen, r](GroupId g, InstanceId i, const Payload&) {
          seen[r].emplace_back(g, i);
        });
  }

  smr::ClientNode::Options copts;
  copts.workers = 24;
  copts.retry_timeout = 100 * kMillisecond;
  auto* client = env_.spawn<smr::ClientNode>(
      kClient, copts,
      smr::ClientNode::NextFn([n = 0](std::uint32_t w) mutable
                              -> std::optional<smr::Request> {
        smr::Request r;
        r.sends.push_back(
            smr::Request::Send{static_cast<GroupId>(w % 2), {1, 2, 3}});
        r.op = to_bytes("m" + std::to_string(n++));
        return r;
      }),
      smr::ClientNode::DoneFn(nullptr));

  env_.sim().run_for(from_seconds(3));
  client->stop();
  env_.sim().run_for(from_seconds(2));

  std::uint64_t sheds = 0;
  for (ProcessId r : {1, 2, 3}) sheds += replica(r)->admission_stats(0).shed;
  EXPECT_GT(sheds, 0u) << "group 0 was supposed to shed";
  ASSERT_FALSE(seen[1].empty());
  EXPECT_EQ(seen[1], seen[2]);
  EXPECT_EQ(seen[2], seen[3]);
  // Per-group delivery is in instance order with no duplicates.
  std::map<GroupId, InstanceId> next;
  for (const auto& [g, i] : seen[1]) {
    EXPECT_GE(i, next[g]) << "group " << g << " went backwards";
    next[g] = i + 1;
  }
}

}  // namespace
}  // namespace mrp
