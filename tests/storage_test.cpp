#include <gtest/gtest.h>

#include "sim/env.hpp"
#include "storage/acceptor_log.hpp"
#include "storage/checkpoint_store.hpp"

namespace mrp::storage {
namespace {

class Noop : public runtime::Node {
 public:
  using runtime::Node::Node;
  void on_message(ProcessId, const runtime::Message&) override {}
};

paxos::LogRecord rec(Round r, const std::string& v, bool decided = false) {
  paxos::LogRecord lr;
  lr.vround = r;
  lr.value.payload = Payload(v);
  lr.decided = decided;
  return lr;
}

class AcceptorLogTest : public ::testing::Test {
 protected:
  AcceptorLogTest() { env_.spawn<Noop>(1); }
  sim::Env env_;
};

TEST_F(AcceptorLogTest, PutGetRoundtrip) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  log.accept(5, rec(1, "five"), nullptr);
  auto got = log.get(5);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value.payload.as_string(), "five");
  EXPECT_FALSE(log.get(4).has_value());
}

TEST_F(AcceptorLogTest, PromisePersistsAndMonotone) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  log.promise(3, nullptr);
  EXPECT_EQ(log.promised(), 3u);
  log.promise(7, nullptr);
  EXPECT_EQ(log.promised(), 7u);
}

TEST_F(AcceptorLogTest, SurvivesCrashRecover) {
  {
    AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
    log.promise(2, nullptr);
    log.accept(1, rec(2, "one", true), nullptr);
    log.accept(2, rec(2, "two"), nullptr);
  }
  env_.crash(1);
  env_.recover(1);
  AcceptorLog log2(env_.runtime_for(1), 0, WriteMode::Memory);
  EXPECT_EQ(log2.promised(), 2u);
  EXPECT_EQ(log2.record_count(), 2u);
  EXPECT_TRUE(log2.get(1)->decided);
}

TEST_F(AcceptorLogTest, SeparateRingsSeparateLogs) {
  AcceptorLog a(env_.runtime_for(1), 0, WriteMode::Memory);
  AcceptorLog b(env_.runtime_for(1), 1, WriteMode::Memory);
  a.accept(0, rec(1, "ring0"), nullptr);
  EXPECT_EQ(b.record_count(), 0u);
}

TEST_F(AcceptorLogTest, HigherRoundOverwrites) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  log.accept(0, rec(1, "old"), nullptr);
  log.accept(0, rec(5, "new"), nullptr);
  EXPECT_EQ(log.get(0)->value.payload.as_string(), "new");
  EXPECT_EQ(log.get(0)->vround, 5u);
}

TEST_F(AcceptorLogTest, DecidedRecordsAreImmutable) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  log.accept(0, rec(1, "final", true), nullptr);
  log.accept(0, rec(9, "attacker"), nullptr);  // ignored: already decided
  EXPECT_EQ(log.get(0)->value.payload.as_string(), "final");
  EXPECT_TRUE(log.get(0)->decided);
}

TEST_F(AcceptorLogTest, TrimRemovesBelow) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  for (InstanceId i = 0; i < 10; ++i) {
    log.accept(i, rec(1, "v" + std::to_string(i), true), nullptr);
  }
  log.trim(6);
  EXPECT_EQ(log.trimmed_to(), 6u);
  EXPECT_EQ(log.record_count(), 4u);
  EXPECT_FALSE(log.get(5).has_value());
  EXPECT_TRUE(log.get(6).has_value());
  // Trimming backwards is a no-op.
  log.trim(3);
  EXPECT_EQ(log.trimmed_to(), 6u);
}

TEST_F(AcceptorLogTest, RangeQuery) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  for (InstanceId i = 0; i < 10; i += 2) {
    log.accept(i, rec(1, "e"), nullptr);
  }
  auto r = log.range(2, 8);
  ASSERT_EQ(r.size(), 3u);  // 2, 4, 6
  EXPECT_EQ(r[0].first, 2u);
  EXPECT_EQ(r[2].first, 6u);
}

TEST_F(AcceptorLogTest, PromisesFromFloor) {
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Memory);
  for (InstanceId i = 0; i < 6; ++i) log.accept(i, rec(2, "p"), nullptr);
  auto ps = log.promises_from(4);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0].instance, 4u);
  EXPECT_EQ(ps[0].vround, 2u);
}

TEST_F(AcceptorLogTest, SyncModeWaitsForDisk) {
  env_.set_disk_params(1, 0, sim::DiskParams{from_millis(5), 1e18});
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Sync);
  TimeNs acked = -1;
  log.accept(0, rec(1, "slow"), [&] { acked = env_.now(); });
  env_.sim().run_until_idle();
  EXPECT_EQ(acked, from_millis(5));
}

TEST_F(AcceptorLogTest, AsyncModeAcksImmediately) {
  env_.set_disk_params(1, 1, sim::DiskParams{from_millis(5), 1e18});
  AcceptorLog log(env_.runtime_for(1), 0, WriteMode::Async, 1);
  TimeNs acked = -1;
  log.accept(0, rec(1, "fast"), [&] { acked = env_.now(); });
  EXPECT_EQ(acked, 0);                      // acked before the device write
  env_.sim().run_until_idle();
  EXPECT_EQ(env_.disk(1, 1).writes(), 1u);  // but the write still happened
}

TEST(TupleOrder, ComponentwiseComparison) {
  CheckpointTuple a{{1, 5}, {2, 3}};
  CheckpointTuple b{{1, 6}, {2, 3}};
  CheckpointTuple c{{1, 4}, {2, 9}};
  EXPECT_TRUE(tuple_leq(a, b));
  EXPECT_FALSE(tuple_leq(b, a));
  EXPECT_FALSE(tuple_leq(a, c));  // incomparable
  EXPECT_FALSE(tuple_leq(c, a));
  EXPECT_TRUE(tuple_leq(a, a));
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  CheckpointStoreTest() { env_.spawn<Noop>(7); }
  sim::Env env_;
};

TEST_F(CheckpointStoreTest, SaveAndLatest) {
  CheckpointStore cs(env_.runtime_for(7));
  EXPECT_FALSE(cs.latest().has_value());
  Checkpoint cp;
  cp.next = {{0, 10}};
  cp.state = to_bytes("state1");
  cs.save(cp, nullptr);
  env_.sim().run_until_idle();
  ASSERT_TRUE(cs.latest().has_value());
  EXPECT_EQ(cs.latest()->next.at(0), 10u);
  EXPECT_EQ(cs.latest()->sequence, 1u);
}

TEST_F(CheckpointStoreTest, KeepsOnlyMostRecent) {
  CheckpointStore cs(env_.runtime_for(7));
  for (int i = 1; i <= 3; ++i) {
    Checkpoint cp;
    cp.next = {{0, static_cast<InstanceId>(i * 10)}};
    cs.save(cp, nullptr);
  }
  env_.sim().run_until_idle();
  EXPECT_EQ(cs.latest()->next.at(0), 30u);
  EXPECT_EQ(cs.saves(), 3u);
}

TEST_F(CheckpointStoreTest, SurvivesCrash) {
  {
    CheckpointStore cs(env_.runtime_for(7));
    Checkpoint cp;
    cp.next = {{0, 42}};
    cp.state = to_bytes("snap");
    cs.save(cp, nullptr);
    env_.sim().run_until_idle();
  }
  env_.crash(7);
  env_.recover(7);
  CheckpointStore cs2(env_.runtime_for(7));
  ASSERT_TRUE(cs2.latest().has_value());
  EXPECT_EQ(cs2.latest()->next.at(0), 42u);
  EXPECT_EQ(mrp::to_string(cs2.latest()->state), "snap");
}

TEST_F(CheckpointStoreTest, SaveCallbackAfterDiskWrite) {
  env_.set_disk_params(7, 0, sim::DiskParams{from_millis(3), 1e18});
  CheckpointStore cs(env_.runtime_for(7));
  Checkpoint cp;
  cp.state = Bytes(1000, 1);
  TimeNs done = -1;
  cs.save(cp, [&] { done = env_.now(); });
  env_.sim().run_until_idle();
  EXPECT_EQ(done, from_millis(3));
}

}  // namespace
}  // namespace mrp::storage
