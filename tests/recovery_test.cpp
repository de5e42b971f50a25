// Recovery protocol tests (Section 5.2): checkpointing at merge boundaries,
// the trim protocol's quorum predicates, replica recovery from local and
// remote checkpoints, and state convergence after failures.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kClientPid = 900;

  /// One partition, three replicas, one ring; fast checkpoint/trim timers.
  void build(TimeNs checkpoint_interval = 500 * kMillisecond,
             TimeNs trim_interval = kSecond) {
    mrpstore::StoreOptions so;
    so.partitions = 1;
    so.replicas_per_partition = 3;
    so.global_ring = false;
    so.ring_params.gap_timeout = 20 * kMillisecond;
    so.replica_options.checkpoint.interval = checkpoint_interval;
    so.replica_options.trim.interval = trim_interval;
    deployment_ = mrpstore::build_store(env_, *registry_, so);
    client_ = std::make_unique<mrpstore::StoreClient>(deployment_);
  }

  /// Starts a closed-loop writer issuing inserts over a small key space.
  void start_writer() {
    smr::ClientNode::Options copts;
    copts.workers = 4;
    copts.retry_timeout = kSecond;
    writer_ = env_.spawn<smr::ClientNode>(
        kClientPid, copts,
        smr::ClientNode::NextFn([this](std::uint32_t) {
          const std::string key = "k" + std::to_string(next_key_++ % 64);
          return client_->insert(key, to_bytes("v" + std::to_string(next_key_)));
        }),
        smr::ClientNode::DoneFn([this](const smr::Completion&) { ++completed_; }));
  }

  smr::ReplicaNode* replica(std::size_t i) {
    return env_.process_as<smr::ReplicaNode>(deployment_.replicas[0][i]);
  }

  mrpstore::KvStateMachine& kv(std::size_t i) {
    return dynamic_cast<mrpstore::KvStateMachine&>(replica(i)->state_machine());
  }

  void quiesce() {
    writer_->stop();
    env_.sim().run_for(from_seconds(3));
  }

  sim::Env env_{7};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  mrpstore::StoreDeployment deployment_;
  std::unique_ptr<mrpstore::StoreClient> client_;
  smr::ClientNode* writer_ = nullptr;
  std::uint64_t next_key_ = 0;
  std::uint64_t completed_ = 0;
};

TEST_F(RecoveryTest, CheckpointsAreTakenAndDurable) {
  build();
  start_writer();
  env_.sim().run_for(from_seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(replica(i)->checkpointer().checkpoints_taken(), 2u)
        << "replica " << i;
    const auto& t = replica(i)->checkpointer().durable_tuple();
    ASSERT_EQ(t.size(), 1u);
    EXPECT_GT(t.begin()->second, 0u);
  }
}

TEST_F(RecoveryTest, TrimNeverPassesDurableQuorumCheckpoint) {
  build();
  start_writer();
  env_.sim().run_for(from_seconds(5));
  // Predicate 2: K_T <= k_p for every replica in the trim quorum. With all
  // three replicas answering, K_T <= min over all durable tuples.
  for (std::size_t i = 0; i < 3; ++i) {
    auto* log = replica(i)->handler(deployment_.partition_groups[0])->log();
    ASSERT_NE(log, nullptr);
    if (log->trimmed_to() == 0) continue;
    for (std::size_t j = 0; j < 3; ++j) {
      const auto& t = replica(j)->checkpointer().durable_tuple();
      if (t.empty()) continue;
      EXPECT_LE(log->trimmed_to(), t.begin()->second)
          << "acceptor " << i << " trimmed past replica " << j;
    }
  }
}

TEST_F(RecoveryTest, TrimActuallyHappens) {
  build(300 * kMillisecond, 600 * kMillisecond);
  start_writer();
  env_.sim().run_for(from_seconds(6));
  auto* log = replica(0)->handler(deployment_.partition_groups[0])->log();
  EXPECT_GT(log->trimmed_to(), 0u) << "log was never trimmed";
  EXPECT_GE(replica(0)->trim_protocol().trims_issued() +
                replica(1)->trim_protocol().trims_issued() +
                replica(2)->trim_protocol().trims_issued(),
            1u);
}

TEST_F(RecoveryTest, ReplicaRecoversAndConverges) {
  build();
  start_writer();
  env_.sim().run_for(from_seconds(2));
  const ProcessId victim = deployment_.replicas[0][2];
  env_.crash(victim);
  env_.sim().run_for(from_seconds(2));
  env_.recover(victim);
  env_.sim().run_for(from_seconds(3));
  quiesce();

  const auto d0 = kv(0).digest();
  EXPECT_EQ(d0, kv(1).digest());
  EXPECT_EQ(d0, kv(2).digest()) << "recovered replica diverged";
  EXPECT_GT(kv(2).size(), 0u);
}

TEST_F(RecoveryTest, RecoveryViaRemoteCheckpointAfterTrim) {
  build(200 * kMillisecond, 400 * kMillisecond);
  start_writer();
  env_.sim().run_for(from_seconds(2));
  const ProcessId victim = deployment_.replicas[0][2];
  env_.crash(victim);
  // Long outage: acceptors trim far past the victim's last checkpoint.
  env_.sim().run_for(from_seconds(10));
  auto* log = replica(0)->handler(deployment_.partition_groups[0])->log();
  ASSERT_GT(log->trimmed_to(), 0u);
  env_.recover(victim);
  env_.sim().run_for(from_seconds(5));
  quiesce();

  const auto d0 = kv(0).digest();
  EXPECT_EQ(d0, kv(2).digest()) << "remote-checkpoint recovery diverged";
}

TEST_F(RecoveryTest, AllReplicasCrashAndRecoverFromStableStorage) {
  build();
  start_writer();
  env_.sim().run_for(from_seconds(3));
  writer_->stop();
  env_.sim().run_for(from_seconds(1));

  const auto before = kv(0).digest();
  for (ProcessId r : deployment_.replicas[0]) env_.crash(r);
  env_.sim().run_for(from_seconds(1));
  for (ProcessId r : deployment_.replicas[0]) env_.recover(r);
  env_.sim().run_for(from_seconds(5));

  // Every replica rebuilt its state from checkpoint + acceptor logs.
  EXPECT_EQ(kv(0).digest(), before);
  EXPECT_EQ(kv(1).digest(), before);
  EXPECT_EQ(kv(2).digest(), before);
}

TEST_F(RecoveryTest, ServiceAvailableDuringSingleReplicaOutage) {
  build();
  start_writer();
  env_.sim().run_for(from_seconds(1));
  const auto before = completed_;
  env_.crash(deployment_.replicas[0][1]);
  env_.sim().run_for(from_seconds(2));
  EXPECT_GT(completed_, before + 50)
      << "service stalled during one-replica outage";
}

TEST_F(RecoveryTest, CheckpointTuplesComparableAcrossReplicas) {
  build(200 * kMillisecond);
  start_writer();
  env_.sim().run_for(from_seconds(4));
  // Predicate 1 consequence: any two durable tuples in a partition must be
  // componentwise comparable (checkpoints only at merge-round boundaries).
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const auto& a = replica(i)->checkpointer().durable_tuple();
      const auto& b = replica(j)->checkpointer().durable_tuple();
      if (a.empty() || b.empty()) continue;
      EXPECT_TRUE(storage::tuple_leq(a, b) || storage::tuple_leq(b, a));
    }
  }
}

}  // namespace
}  // namespace mrp
