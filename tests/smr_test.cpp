// State-machine replication layer: command batching, session deduplication
// (exactly-once execution under client retry), client fan-out/fan-in, and
// batch encoding.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coord/registry.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp::smr {
namespace {

/// Counter state machine: "inc" increments, "get" reads. Duplicated
/// execution would be immediately visible in the counter value.
class CounterSm final : public StateMachine {
 public:
  Bytes apply(GroupId, const Bytes& op) override {
    if (mrp::to_string(op) == "inc") ++value_;
    return to_bytes(std::to_string(value_));
  }
  Bytes snapshot() const override { return to_bytes(std::to_string(value_)); }
  void restore(const Bytes& s) override { value_ = std::stoll(mrp::to_string(s)); }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class SmrTest : public ::testing::Test {
 protected:
  static constexpr GroupId kRing = 0;
  static constexpr ProcessId kClient = 500;

  void build(ReplicaOptions ropts = {}, ringpaxos::RingParams params = {}) {
    coord::RingConfig cfg;
    cfg.ring = kRing;
    cfg.order = {1, 2, 3};
    cfg.acceptors = {1, 2, 3};
    registry_->create_ring(cfg);

    multiring::NodeConfig node_cfg;
    node_cfg.rings.push_back(multiring::RingSub{kRing, params, true});
    for (ProcessId r : {1, 2, 3}) {
      env_.spawn<ReplicaNode>(
          r, registry_.get(), node_cfg,
          StateMachineFactory([](runtime::Runtime&, ProcessId) {
            return std::make_unique<CounterSm>();
          }),
          ropts);
    }
  }

  ReplicaNode* replica(ProcessId r) { return env_.process_as<ReplicaNode>(r); }
  CounterSm& counter(ProcessId r) {
    return dynamic_cast<CounterSm&>(replica(r)->state_machine());
  }

  Request inc() const {
    Request r;
    r.sends.push_back(Request::Send{kRing, {1, 2, 3}});
    r.op = to_bytes("inc");
    return r;
  }

  sim::Env env_{55};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(env_, 50 * kMillisecond);
};

TEST_F(SmrTest, RequestExecutedOnAllReplicasRepliedOnce) {
  build();
  int done = 0;
  std::string result;
  env_.spawn<ClientNode>(
      kClient, ClientNode::Options{1, kSecond, 0},
      ClientNode::NextFn([&](std::uint32_t) -> std::optional<Request> {
        if (done > 0) return std::nullopt;
        return inc();
      }),
      ClientNode::DoneFn([&](const Completion& c) {
        ++done;
        result = mrp::to_string(c.results.begin()->second);
      }));
  env_.sim().run_for(from_seconds(1));
  EXPECT_EQ(done, 1);
  EXPECT_EQ(result, "1");
  EXPECT_EQ(counter(1).value(), 1);
  EXPECT_EQ(counter(2).value(), 1);
  EXPECT_EQ(counter(3).value(), 1);
}

TEST_F(SmrTest, ClosedLoopWorkersProgress) {
  build();
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{8, kSecond, 0},
      ClientNode::NextFn([&](std::uint32_t) { return inc(); }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_seconds(2));
  client->stop();
  env_.sim().run_for(from_seconds(1));
  EXPECT_GT(client->completed(), 500u);
  EXPECT_EQ(counter(1).value(),
            static_cast<std::int64_t>(replica(1)->executed()));
}

TEST_F(SmrTest, ExactlyOnceUnderAggressiveRetry) {
  // Retry far faster than the ring can answer: lots of duplicate commands.
  ringpaxos::RingParams slow;
  slow.write_mode = storage::WriteMode::Sync;
  for (ProcessId r : {1, 2, 3}) {
    env_.set_disk_params(r, 0, sim::DiskParams{from_millis(4), 1e18});
  }
  build({}, slow);
  int completions = 0;
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{1, 5 * kMillisecond, 0},
      ClientNode::NextFn([&](std::uint32_t) -> std::optional<Request> {
        if (completions >= 20) return std::nullopt;
        return inc();
      }),
      ClientNode::DoneFn([&](const Completion&) { ++completions; }));
  env_.sim().run_for(from_seconds(5));
  EXPECT_GT(client->retries(), 0u) << "test did not exercise retries";
  EXPECT_EQ(completions, 20);
  // Dedup must hold the counter at exactly 20 on every replica.
  EXPECT_EQ(counter(1).value(), 20);
  EXPECT_EQ(counter(2).value(), 20);
  EXPECT_EQ(counter(3).value(), 20);
}

TEST_F(SmrTest, BatchingCoalescesCommands) {
  ReplicaOptions ropts;
  ropts.batch_delay = 5 * kMillisecond;
  ropts.batch_bytes = 32 * 1024;
  build(ropts);
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{16, kSecond, 0},
      ClientNode::NextFn([&](std::uint32_t) { return inc(); }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_seconds(2));
  client->stop();
  env_.sim().run_for(from_seconds(1));

  const std::uint64_t commands = replica(1)->executed();
  const std::uint64_t instances = replica(1)->handler(kRing)->decided_count();
  EXPECT_GT(commands, 100u);
  EXPECT_LT(instances, commands / 2)
      << "batching should pack several commands per consensus instance";
}

TEST_F(SmrTest, WorkersHaveIndependentSessions) {
  build();
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{4, kSecond, 0},
      ClientNode::NextFn([&](std::uint32_t) { return inc(); }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_millis(500));
  client->stop();
  env_.sim().run_for(from_millis(500));
  // All workers' commands executed; counter equals total completions
  // (within the commands still in flight when stopped).
  EXPECT_GE(counter(1).value(),
            static_cast<std::int64_t>(client->completed()));
}

// --- One reply per partition ----------------------------------------------

/// One MsgClientReply as the client received it.
struct ReplySeen {
  ProcessId from = 0;
  SessionId session = 0;
  std::uint64_t seq = 0;
  int partition_tag = 0;
  TimeNs time = 0;
};

/// A ClientNode that records every reply before handling it.
class TappedClient final : public ClientNode {
 public:
  TappedClient(sim::Env& env, ProcessId id, Options options, NextFn next,
               DoneFn done, std::vector<ReplySeen>* log)
      : ClientNode(env, id, options, std::move(next), std::move(done)),
        log_(log) {}

  void on_message(ProcessId from, const runtime::Message& m) override {
    if (m.kind() == kMsgClientReply) {
      const auto& r = runtime::msg_cast<MsgClientReply>(m);
      log_->push_back({from, r.session, r.seq, r.partition_tag, now()});
    }
    ClientNode::on_message(from, m);
  }

 private:
  std::vector<ReplySeen>* log_;
};

/// A ring member that votes but delivers nothing (no subscriptions).
class AcceptorOnly final : public multiring::MultiRingNode {
 public:
  using MultiRingNode::MultiRingNode;
};

/// Replies per command identity (session, seq).
std::map<std::pair<SessionId, std::uint64_t>, std::vector<ProcessId>>
repliers_by_command(const std::vector<ReplySeen>& log) {
  std::map<std::pair<SessionId, std::uint64_t>, std::vector<ProcessId>> out;
  for (const ReplySeen& r : log) out[{r.session, r.seq}].push_back(r.from);
  return out;
}

class ReplierTest : public SmrTest {
 protected:
  /// `workers` closed-loop sessions incrementing through proposer 1.
  TappedClient* spawn_client(std::uint32_t workers,
                             TimeNs retry_timeout = kSecond) {
    return env_.spawn<TappedClient>(
        kClient, ClientNode::Options{workers, retry_timeout, 0},
        ClientNode::NextFn([this](std::uint32_t) { return inc(); }),
        ClientNode::DoneFn(nullptr), &replies_);
  }

  /// Checkpoints every 200 ms and trims every 400 ms, so an outage of a few
  /// seconds leaves a restarted replica behind the acceptors' logs.
  void build_with_checkpoints() {
    ReplicaOptions ropts;
    ropts.checkpoint.interval = 200 * kMillisecond;
    ropts.trim.interval = 400 * kMillisecond;
    ringpaxos::RingParams params;
    params.gap_timeout = 20 * kMillisecond;
    build(ropts, params);
  }

  /// Every survivor executed each completed command exactly once.
  void expect_exactly_once(const ClientNode& client,
                           const std::vector<ProcessId>& replicas) {
    for (ProcessId r : replicas) {
      EXPECT_EQ(counter(r).value(),
                static_cast<std::int64_t>(client.completed()))
          << "replica " << r;
    }
  }

  std::vector<ReplySeen> replies_;
};

TEST_F(ReplierTest, OneReplyPerCommandFromCoordinatorSuccessor) {
  // Coordinator 1 votes first, so acceptor 2's vote completes the quorum:
  // replica 2 learns every command first and is the only one to answer.
  build();
  auto* client = spawn_client(8);
  env_.sim().run_for(from_seconds(1));
  client->stop();
  env_.sim().run_for(from_millis(200));

  ASSERT_GT(client->completed(), 200u);
  EXPECT_EQ(client->retries(), 0u);
  const auto by_command = repliers_by_command(replies_);
  EXPECT_EQ(by_command.size(), client->completed());
  for (const auto& [key, from] : by_command) {
    ASSERT_EQ(from.size(), 1u) << "session " << key.first << " seq "
                               << key.second;
    EXPECT_EQ(from[0], 2);
  }
  // Every replica still executed every command.
  for (ProcessId r : {1, 2, 3}) {
    EXPECT_EQ(counter(r).value(),
              static_cast<std::int64_t>(client->completed()));
  }
}

TEST_F(ReplierTest, NonLearnerCrosserIsSkipped) {
  // Ring 1 -> 2 -> 3 -> 4 with acceptors {1, 2, 3}; 2 only votes. The
  // quorum crosses at 2, so the next learner, 3, answers.
  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  registry_->create_ring(cfg);
  multiring::NodeConfig learner;
  learner.rings.push_back(multiring::RingSub{kRing, {}, true});
  multiring::NodeConfig voter;
  voter.rings.push_back(multiring::RingSub{kRing, {}, false});
  env_.spawn<AcceptorOnly>(2, registry_.get(), voter);
  for (ProcessId r : {1, 3, 4}) {
    env_.spawn<ReplicaNode>(
        r, registry_.get(), learner,
        StateMachineFactory([](runtime::Runtime&, ProcessId) {
          return std::make_unique<CounterSm>();
        }),
        ReplicaOptions{});
  }
  auto* client = spawn_client(4);
  env_.sim().run_for(from_millis(500));
  client->stop();
  env_.sim().run_for(from_millis(200));

  ASSERT_GT(client->completed(), 50u);
  EXPECT_EQ(client->retries(), 0u);
  for (const auto& [key, from] : repliers_by_command(replies_)) {
    ASSERT_EQ(from.size(), 1u) << "seq " << key.second;
    EXPECT_EQ(from[0], 3);
  }
}

TEST_F(ReplierTest, ReplicaWithoutRegistryEntryRepliesToo) {
  // Replica 3's subscription entry is empty, so it cannot find its
  // partition and fails open: it answers everything, next to replica 2
  // (the replier of partition {1, 2}).
  build();
  registry_->set_subscriptions(3, {});
  auto* client = spawn_client(4);
  env_.sim().run_for(from_millis(500));
  client->stop();
  env_.sim().run_for(from_millis(200));

  ASSERT_GT(client->completed(), 50u);
  for (const auto& [key, from] : repliers_by_command(replies_)) {
    EXPECT_EQ(std::set<ProcessId>(from.begin(), from.end()),
              (std::set<ProcessId>{2, 3}))
        << "seq " << key.second;
  }
}

TEST_F(ReplierTest, ReplierCrashStrandsNoRequest) {
  // Two rings merged at every replica, like a partition ring and a global
  // ring, both under load. The quorum crosses at 2 on ring 0 but at 3 on
  // ring 1 (order 1 -> 3 -> 2), so 3 can hold ring 1's next decision while
  // 2 still waits for it at the merge. Replier 2 is killed. Until the
  // crash is detected, 1 and 3 execute ring 0 commands that 2 learned but
  // never executed, and leave them to 2; the new replier (3) must answer
  // them when it takes over, long before the 10 s client retry.
  constexpr GroupId kOther = 1;
  ringpaxos::RingParams params;
  params.lambda = 2000;
  params.skip_interval = 5 * kMillisecond;
  for (GroupId g : {kRing, kOther}) {
    coord::RingConfig cfg;
    cfg.ring = g;
    cfg.order = g == kRing ? std::vector<ProcessId>{1, 2, 3}
                           : std::vector<ProcessId>{1, 3, 2};
    cfg.acceptors = {1, 2, 3};
    registry_->create_ring(cfg);
  }
  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, params, true});
  node_cfg.rings.push_back(multiring::RingSub{kOther, params, true});
  for (ProcessId r : {1, 2, 3}) {
    env_.spawn<ReplicaNode>(
        r, registry_.get(), node_cfg,
        StateMachineFactory([](runtime::Runtime&, ProcessId) {
          return std::make_unique<CounterSm>();
        }),
        ReplicaOptions{});
  }
  constexpr TimeNs kRetry = 10 * kSecond;
  auto* client = env_.spawn<TappedClient>(
      kClient, ClientNode::Options{16, kRetry, 0},
      ClientNode::NextFn([n = 0](std::uint32_t) mutable {
        return Request::single(n++ % 2 == 0 ? kRing : kOther, {1, 2, 3},
                               to_bytes("inc"));
      }),
      ClientNode::DoneFn(nullptr), &replies_);
  env_.sim().run_for(from_millis(500));
  const std::uint64_t before_crash = client->completed();
  ASSERT_GT(before_crash, 100u);
  env_.crash(2);
  const TimeNs crash_at = env_.sim().now();
  env_.sim().run_for(from_millis(1500));
  client->stop();
  // Long enough for a stranded request's retry to complete it.
  env_.sim().run_for(kRetry + kSecond);

  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(client->retries(), 0u)
      << "requests waited the full retry timeout after the replier crashed";
  EXPECT_GT(client->completed(), before_crash + 100);
  // Exactly once at the survivors.
  for (ProcessId r : {1, 3}) {
    EXPECT_EQ(counter(r).value(),
              static_cast<std::int64_t>(client->completed()))
        << "replica " << r;
  }
  // Replica 3, next after 2 in ring order, took over as replier.
  std::uint64_t late = 0;
  for (const ReplySeen& r : replies_) {
    if (r.time < crash_at + from_millis(500)) continue;
    ++late;
    EXPECT_EQ(r.from, 3);
  }
  EXPECT_GT(late, 0u);
}

TEST_F(ReplierTest, FailoverToStandbyStrandsNoRequest) {
  // The benchmark's ring_failover ring: order 1 -> 2 -> 3 -> 4, acceptors
  // {1, 2, 3}, standby 4, auto-heal. Replier 2 (the crosser) is killed
  // under load; the ring drops it, 3 takes over as replier, and 4 later
  // replaces 2 as an acceptor. No request may wait for the 10 s retry.
  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  cfg.standbys = {4};
  cfg.fd.auto_heal = true;
  cfg.fd.suspect_grace = 300 * kMillisecond;
  registry_->create_ring(cfg);
  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  for (ProcessId r : {1, 2, 3, 4}) {
    env_.spawn<ReplicaNode>(
        r, registry_.get(), node_cfg,
        StateMachineFactory([](runtime::Runtime&, ProcessId) {
          return std::make_unique<CounterSm>();
        }),
        ReplicaOptions{});
  }
  constexpr TimeNs kRetry = 10 * kSecond;
  auto* client = env_.spawn<TappedClient>(
      kClient, ClientNode::Options{16, kRetry, 0},
      ClientNode::NextFn([](std::uint32_t) {
        return Request::single(kRing, {1, 3, 4}, to_bytes("inc"));
      }),
      ClientNode::DoneFn(nullptr), &replies_);
  env_.sim().run_for(from_millis(500));
  const std::uint64_t before_crash = client->completed();
  ASSERT_GT(before_crash, 100u);
  env_.crash(2);
  const TimeNs crash_at = env_.sim().now();
  env_.sim().run_for(from_millis(1500));
  client->stop();
  env_.sim().run_for(kRetry + kSecond);

  EXPECT_EQ(registry_->heal_count(), 1u);
  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(client->retries(), 0u)
      << "requests waited the full retry timeout after the replier crashed";
  EXPECT_GT(client->completed(), before_crash + 100);
  expect_exactly_once(*client, {1, 3, 4});
  std::uint64_t late = 0;
  for (const ReplySeen& r : replies_) {
    if (r.time < crash_at + from_millis(500)) continue;
    ++late;
    EXPECT_EQ(r.from, 3);
  }
  EXPECT_GT(late, 0u);
}

TEST_F(ReplierTest, TakeoverResendsOnlyRecentReplies) {
  // A takeover re-sends only the replies of commands executed within two
  // failure-detection periods (2 x 50 ms here) before the view change, not
  // the last reply of every session the replica ever served.
  build();
  auto* idle = spawn_client(200);  // 200 sessions, idle before the crash
  std::vector<ReplySeen> active_replies;
  auto* active = env_.spawn<TappedClient>(
      kClient + 1, ClientNode::Options{4, 10 * kSecond, 0},
      ClientNode::NextFn([this](std::uint32_t) { return inc(); }),
      ClientNode::DoneFn(nullptr), &active_replies);
  env_.sim().run_for(from_millis(300));
  idle->stop();
  env_.sim().run_for(from_millis(500));
  ASSERT_GT(idle->completed(), 200u);
  const std::size_t idle_replies = replies_.size();
  env_.crash(2);
  env_.sim().run_for(from_millis(1000));
  active->stop();
  env_.sim().run_for(from_millis(200));

  EXPECT_EQ(replies_.size(), idle_replies)
      << "the takeover re-sent replies of long-idle sessions";
  EXPECT_EQ(active->outstanding(), 0u);
  EXPECT_EQ(active->retries(), 0u);
}

TEST_F(ReplierTest, RestartedReplierAnswersWhileReplaying) {
  // Replier 2 crashes under load and restarts 300 ms later. On its return
  // it is the replier again while it still replays the commands it missed;
  // they and the new ones are answered without a client retry.
  build_with_checkpoints();
  constexpr TimeNs kRetry = 10 * kSecond;
  auto* client = spawn_client(8, kRetry);
  env_.sim().run_for(from_millis(700));
  const std::uint64_t before_crash = client->completed();
  ASSERT_GT(before_crash, 100u);
  env_.crash(2);
  env_.sim().run_for(from_millis(300));
  env_.recover(2);
  env_.sim().run_for(from_millis(1500));
  const std::uint64_t after_restart = client->completed();
  client->stop();
  env_.sim().run_for(kRetry + kSecond);

  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(client->retries(), 0u);
  EXPECT_GT(after_restart, before_crash + 100);
  expect_exactly_once(*client, {1, 2, 3});
  // 2 answers again once it is back in the view.
  EXPECT_EQ(replies_.back().from, 2);
}

TEST_F(ReplierTest, ReplierRestoredFromPeerCheckpointAnswersWhatItCovers) {
  // Replier 2 is down long enough for the acceptors to trim past its last
  // checkpoint, so on its return it must install a peer's checkpoint. Its
  // first query to its peers is lost (a short partition), so it asks again
  // a second later, when the view has long named it the replier again: 1
  // and 3 executed the commands the checkpoint it gets covers and left
  // them to 2, which never executes them. They are answered by 2's
  // re-send, not by a client retry.
  build_with_checkpoints();
  constexpr TimeNs kRetry = 30 * kSecond;
  auto* client = spawn_client(8, kRetry);
  env_.sim().run_for(from_millis(700));
  env_.crash(2);
  env_.sim().run_for(from_seconds(5));
  ASSERT_GT(replica(1)->handler(kRing)->log()->trimmed_to(), 0u);
  for (ProcessId peer : {1, 3}) env_.net().set_partitioned(2, peer, true);
  env_.recover(2);
  env_.sim().run_for(from_millis(300));
  for (ProcessId peer : {1, 3}) env_.net().set_partitioned(2, peer, false);
  env_.sim().run_for(from_seconds(3));
  client->stop();
  env_.sim().run_for(from_seconds(1));

  EXPECT_GE(replica(2)->checkpointer().remote_installs(), 1u);
  EXPECT_EQ(client->outstanding(), 0u);
  EXPECT_EQ(client->retries(), 0u);
  expect_exactly_once(*client, {1, 2, 3});
}

// --- Client sessions and retry timing, against stub proposers -------------

/// One MsgClientRequest as a stub proposer received it.
struct Arrival {
  ProcessId at = 0;
  GroupId group = -1;
  SessionId session = 0;
  std::uint64_t seq = 0;
  TimeNs time = 0;
};

struct StubLog {
  std::vector<Arrival> arrivals;
  /// Each arrival's reply delay, or nullopt to withhold the reply.
  std::function<std::optional<TimeNs>(const Arrival&)> reply_after =
      [](const Arrival&) { return std::optional<TimeNs>(0); };
  /// Replies sent per answered arrival; copy k carries result "<group>/<k>".
  int copies = 1;
};

/// Records every request and answers it (partition tag = group) after the
/// delay StubLog::reply_after picks.
class StubProposer final : public sim::Process {
 public:
  StubProposer(sim::Env& env, ProcessId id, StubLog* log)
      : Process(env, id), log_(log) {}

  void on_message(ProcessId, const runtime::Message& m) override {
    if (m.kind() != kMsgClientRequest) return;
    const auto& req = runtime::msg_cast<MsgClientRequest>(m);
    const Arrival a{id(), req.group, req.command.session, req.command.seq,
                    now()};
    log_->arrivals.push_back(a);
    const std::optional<TimeNs> delay = log_->reply_after(a);
    if (!delay) return;
    after(*delay, [this, a] {
      for (int k = 0; k < log_->copies; ++k) {
        auto reply = std::make_shared<MsgClientReply>();
        reply->session = a.session;
        reply->seq = a.seq;
        reply->partition_tag = a.group;
        reply->result =
            to_bytes(std::to_string(a.group) + "/" + std::to_string(k));
        send(session_client(a.session), reply);
      }
    });
  }

 private:
  StubLog* log_;
};

class ClientSessionTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kClient = 500;

  void SetUp() override {
    for (ProcessId p : {1, 2, 3}) env_.spawn<StubProposer>(p, &log_);
  }

  /// One send per group, each answered under the group's partition tag.
  static Request to_groups(std::vector<GroupId> groups, bool atomic) {
    Request r;
    for (GroupId g : groups) r.sends.push_back(Request::Send{g, {1, 2, 3}});
    r.op = to_bytes("op");
    r.expected_partitions = groups.size();
    r.atomic = atomic;
    return r;
  }

  sim::Env env_{7};
  StubLog log_;
};

TEST_F(ClientSessionTest, EachDestinationSetIsASessionNumberedFromOne) {
  // Each worker cycles through {0}, {1}, {0,1} atomic, {0}, {1,0} fan-out:
  // the fan-out addresses the same set as the atomic request, so it shares
  // its session.
  constexpr std::uint32_t kWorkers = 3;
  constexpr int kPerWorker = 40;
  std::vector<int> issued(kWorkers, 0);
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{kWorkers, kSecond, 0},
      ClientNode::NextFn([&](std::uint32_t w) -> std::optional<Request> {
        const int i = issued[w]++;
        if (i >= kPerWorker) return std::nullopt;
        switch (i % 5) {
          case 0:
          case 3:
            return to_groups({0}, false);
          case 1:
            return to_groups({1}, false);
          case 2:
            return to_groups({0, 1}, true);
          default:
            return to_groups({1, 0}, false);
        }
      }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_seconds(1));
  ASSERT_EQ(client->completed(), kWorkers * kPerWorker);
  EXPECT_EQ(client->retries(), 0u);

  // Per session: the seqs in first-arrival order, and the groups seen.
  std::map<SessionId, std::vector<std::uint64_t>> seqs;
  std::map<SessionId, std::set<GroupId>> groups;
  for (const Arrival& a : log_.arrivals) {
    std::vector<std::uint64_t>& v = seqs[a.session];
    if (v.empty() || v.back() != a.seq) v.push_back(a.seq);
    groups[a.session].insert(a.group);
  }
  // Set indices follow first use: {0} -> 0, {1} -> 1, {0,1} -> 2.
  const std::map<std::uint32_t, std::pair<std::set<GroupId>, std::size_t>>
      expected = {{0, {{0}, 16}}, {1, {{1}, 8}}, {2, {{0, 1}, 16}}};
  ASSERT_EQ(seqs.size(), kWorkers * expected.size());
  std::set<std::uint32_t> workers;
  for (const auto& [session, v] : seqs) {
    EXPECT_EQ(session_client(session), kClient);
    workers.insert(static_cast<std::uint32_t>(session & 0xfffff));
    const auto it = expected.find(session_set(session));
    ASSERT_NE(it, expected.end()) << session;
    EXPECT_EQ(groups[session], it->second.first) << session;
    ASSERT_EQ(v.size(), it->second.second) << session;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i], i + 1) << "session " << session;
    }
  }
  EXPECT_EQ(workers, (std::set<std::uint32_t>{0, 1, 2}));
}

TEST_F(ClientSessionTest, FirstResendIsExactlyOneTimeoutAfterIssueThenBacksOff) {
  log_.reply_after = [](const Arrival&) { return std::nullopt; };
  constexpr TimeNs kTimeout = 100 * kMillisecond;
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{1, kTimeout, 0},
      ClientNode::NextFn([sent = false](std::uint32_t) mutable
                         -> std::optional<Request> {
        if (std::exchange(sent, true)) return std::nullopt;
        return to_groups({0}, false);
      }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_seconds(2));

  // Every copy is the same command, rotated through the targets; link
  // delay is constant, so arrival gaps equal send gaps.
  ASSERT_GE(log_.arrivals.size(), 5u);
  for (std::size_t i = 0; i < log_.arrivals.size(); ++i) {
    const Arrival& a = log_.arrivals[i];
    EXPECT_EQ(a.at, static_cast<ProcessId>(1 + i % 3));
    EXPECT_EQ(a.session, log_.arrivals[0].session);
    EXPECT_EQ(a.seq, 1u);
  }
  EXPECT_EQ(log_.arrivals[1].time - log_.arrivals[0].time, kTimeout);
  // Resend k+1 follows resend k by a jittered backoff in
  // [0.75, 1] * timeout * 2^(k-1).
  for (std::size_t k = 1; k + 1 < log_.arrivals.size() && k <= 3; ++k) {
    const TimeNs gap = log_.arrivals[k + 1].time - log_.arrivals[k].time;
    const TimeNs term = kTimeout << (k - 1);
    EXPECT_GE(gap, term * 3 / 4) << "resend " << k;
    EXPECT_LE(gap, term) << "resend " << k;
  }
  EXPECT_EQ(client->retries(), log_.arrivals.size() - 1);
}

TEST_F(ClientSessionTest, DeadlinesStayExactAmidCompletions) {
  // Requests answered before their deadline never resend; every fifth
  // request's first copy goes unanswered and must be re-sent exactly one
  // timeout after it was issued, whatever completed around it.
  constexpr TimeNs kTimeout = 50 * kMillisecond;
  log_.reply_after = [](const Arrival& a) -> std::optional<TimeNs> {
    if (a.seq % 5 == 0 && a.at == 1) return std::nullopt;
    return (a.seq % 7) * kTimeout / 8;  // up to 0.75 of the timeout
  };
  ClientNode::Options opts{8, kTimeout, 0};
  opts.start_delay = 3 * kMillisecond;
  constexpr int kRequests = 397;
  int issued = 0;
  auto* client = env_.spawn<ClientNode>(
      kClient, opts,
      ClientNode::NextFn([&](std::uint32_t) -> std::optional<Request> {
        if (issued++ >= kRequests) return std::nullopt;
        return to_groups({0}, false);
      }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_seconds(5));
  ASSERT_EQ(client->completed(), static_cast<std::uint64_t>(kRequests));

  std::map<std::pair<SessionId, std::uint64_t>, std::vector<TimeNs>> copies;
  for (const Arrival& a : log_.arrivals) {
    copies[{a.session, a.seq}].push_back(a.time);
  }
  ASSERT_EQ(copies.size(), static_cast<std::size_t>(kRequests));
  std::uint64_t withheld = 0;
  for (const auto& [key, times] : copies) {
    if (key.second % 5 == 0) {
      ++withheld;
      ASSERT_EQ(times.size(), 2u) << key.first << "/" << key.second;
      EXPECT_EQ(times[1] - times[0], kTimeout) << key.first << "/" << key.second;
    } else {
      EXPECT_EQ(times.size(), 1u) << key.first << "/" << key.second;
    }
  }
  EXPECT_GT(withheld, 0u);
  EXPECT_EQ(client->retries(), withheld);
}

TEST_F(ClientSessionTest, AnsweredRequestsLeaveNoTimerBehind) {
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{16, kSecond, 0},
      ClientNode::NextFn([](std::uint32_t) -> std::optional<Request> {
        return to_groups({0}, false);
      }),
      ClientNode::DoneFn(nullptr));
  env_.sim().run_for(from_millis(500));
  EXPECT_GT(client->completed(), 1000u);
  EXPECT_EQ(client->retries(), 0u);
  // A timer per request would leave every request of the last second
  // pending; one shared deadline timer leaves about one event per worker.
  EXPECT_LT(env_.sim().pending_events(), 100u);
}

TEST_F(ClientSessionTest, DuplicatePartitionReplyChangesNothing) {
  // Every partition answers twice; group 1 answers after group 0's pair, so
  // group 0's second copy arrives while the request is still waiting.
  log_.copies = 2;
  log_.reply_after = [](const Arrival& a) -> std::optional<TimeNs> {
    return a.group == 1 ? 10 * kMillisecond : 0;
  };
  std::vector<Completion> done;
  auto* client = env_.spawn<ClientNode>(
      kClient, ClientNode::Options{1, kSecond, 0},
      ClientNode::NextFn([sent = false](std::uint32_t) mutable
                         -> std::optional<Request> {
        if (std::exchange(sent, true)) return std::nullopt;
        return to_groups({0, 1}, false);
      }),
      ClientNode::DoneFn([&](const Completion& c) { done.push_back(c); }));
  env_.sim().run_for(from_millis(200));

  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(client->completed(), 1u);
  EXPECT_EQ(client->retries(), 0u);
  ASSERT_EQ(done[0].results.size(), 2u);
  EXPECT_EQ(mrp::to_string(done[0].results.at(0)), "0/0");
  EXPECT_EQ(mrp::to_string(done[0].results.at(1)), "1/0");
  // Completed on group 1's first reply, not earlier.
  EXPECT_GE(done[0].latency, 10 * kMillisecond);
}

TEST(BatchCodec, Roundtrip) {
  Batch b;
  for (int i = 0; i < 5; ++i) {
    Command c;
    c.session = make_session(42, static_cast<std::uint32_t>(i));
    c.seq = static_cast<std::uint64_t>(i) * 7;
    c.op = to_bytes("op" + std::to_string(i));
    b.commands.push_back(c);
  }
  const Batch d = decode_batch(encode_batch(b));
  ASSERT_EQ(d.commands.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    const auto& c = d.commands[static_cast<std::size_t>(i)];
    EXPECT_EQ(session_client(c.session), 42);
    EXPECT_EQ(c.seq, static_cast<std::uint64_t>(i) * 7);
    EXPECT_EQ(mrp::to_string(c.op), "op" + std::to_string(i));
  }
}

TEST(BatchCodec, EncodingIsAllocatedAtItsSize) {
  // A batch of eight 4 KiB commands must not sit in a doubled buffer.
  Batch b;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Command c;
    c.session = make_session(42, i);
    c.seq = i + 1;
    c.op.assign(4096, static_cast<std::uint8_t>(i));
    if (i % 2 == 1) c.groups = {0, 1};
    b.commands.push_back(c);
  }
  const Bytes encoded = encode_batch(b);
  EXPECT_LE(encoded.size(), b.wire_size());
  EXPECT_LE(encoded.capacity(), b.wire_size());
  EXPECT_EQ(decode_batch(encoded).commands.size(), 8u);
}

TEST(BatchCodec, SessionPacking) {
  const SessionId s = make_session(123, 456);
  EXPECT_EQ(session_client(s), 123);
  EXPECT_EQ(s & 0xfffff, 456u);
  EXPECT_EQ(session_set(s), 0u);

  const SessionId last = make_session(123, 0xfffff, kSessionSets - 1);
  EXPECT_EQ(session_client(last), 123);
  EXPECT_EQ(last & 0xfffff, 0xfffffu);
  EXPECT_EQ(session_set(last), kSessionSets - 1);

  // Negative and maximal process ids survive the packing too.
  const SessionId neg = make_session(-7, 3, 5);
  EXPECT_EQ(session_client(neg), -7);
  EXPECT_EQ(neg & 0xfffff, 3u);
  EXPECT_EQ(session_set(neg), 5u);
  EXPECT_NE(make_session(123, 456, 1), s);
}

}  // namespace
}  // namespace mrp::smr
