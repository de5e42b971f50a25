// dLog service tests: Table 2 operations, per-log position contiguity,
// multi-append atomicity via the common ring, trim semantics, and replica
// agreement on positions.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>

#include "coord/registry.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp::dlog {
namespace {

TEST(DlogOps, EncodingRoundtrip) {
  Op op;
  op.type = OpType::kMultiAppend;
  op.logs = {0, 2, 5};
  op.data = to_bytes("payload");
  const Op d = decode_op(encode_op(op));
  EXPECT_EQ(d.type, OpType::kMultiAppend);
  EXPECT_EQ(d.logs, (std::vector<LogId>{0, 2, 5}));
  EXPECT_EQ(mrp::to_string(d.data), "payload");

  Result res;
  res.positions = {{0, 7}, {2, 3}};
  res.data = to_bytes("entry");
  const Result r = decode_result(encode_result(res));
  ASSERT_EQ(r.positions.size(), 2u);
  EXPECT_EQ(r.positions[1], (std::pair<LogId, Position>{2, 3}));
}

class Noop : public runtime::Node {
 public:
  using runtime::Node::Node;
  void on_message(ProcessId, const runtime::Message&) override {}
};

class SmOnly : public ::testing::Test {
 protected:
  SmOnly() { env_.spawn<Noop>(1); }
  sim::Env env_;
};

TEST_F(SmOnly, AppendAssignsContiguousPositions) {
  LogStateMachine sm(env_.runtime_for(1), 1, {0, 1}, {});
  auto run = [&](Op op) { return decode_result(sm.apply(0, encode_op(op))); };
  for (Position i = 0; i < 5; ++i) {
    Op ap{OpType::kAppend, {0}, 0, to_bytes("e" + std::to_string(i))};
    const Result r = run(ap);
    ASSERT_EQ(r.positions.size(), 1u);
    EXPECT_EQ(r.positions[0].second, i);
  }
  EXPECT_EQ(sm.next_position(0), 5u);
  EXPECT_EQ(sm.next_position(1), 0u);  // untouched log
}

TEST_F(SmOnly, MultiAppendTouchesOnlyOwnedLogs) {
  LogStateMachine sm(env_.runtime_for(1), 1, {0, 1}, {});
  Op ma{OpType::kMultiAppend, {0, 1, 9}, 0, to_bytes("x")};
  const Result r = decode_result(sm.apply(0, encode_op(ma)));
  ASSERT_EQ(r.positions.size(), 2u);  // log 9 not owned
  EXPECT_EQ(sm.next_position(0), 1u);
  EXPECT_EQ(sm.next_position(1), 1u);
}

TEST_F(SmOnly, ReadSemantics) {
  LogStateMachine sm(env_.runtime_for(1), 1, {0}, {});
  Op ap{OpType::kAppend, {0}, 0, to_bytes("hello")};
  sm.apply(0, encode_op(ap));
  auto run = [&](Op op) { return decode_result(sm.apply(0, encode_op(op))); };
  Op rd{OpType::kRead, {0}, 0, {}};
  EXPECT_EQ(mrp::to_string(run(rd).data), "hello");
  Op beyond{OpType::kRead, {0}, 5, {}};
  EXPECT_EQ(run(beyond).status, Status::kNotFound);
}

TEST_F(SmOnly, TrimFlushesAndGuardsReads) {
  LogStateMachine sm(env_.runtime_for(1), 1, {0}, {});
  for (int i = 0; i < 10; ++i) {
    Op ap{OpType::kAppend, {0}, 0, to_bytes("e" + std::to_string(i))};
    sm.apply(0, encode_op(ap));
  }
  Op trim{OpType::kTrim, {0}, 6, {}};
  sm.apply(0, encode_op(trim));
  EXPECT_EQ(sm.trimmed_to(0), 6u);
  auto run = [&](Op op) { return decode_result(sm.apply(0, encode_op(op))); };
  Op low{OpType::kRead, {0}, 3, {}};
  EXPECT_EQ(run(low).status, Status::kTrimmed);
  Op ok{OpType::kRead, {0}, 7, {}};
  EXPECT_EQ(mrp::to_string(run(ok).data), "e7");
  // Appends continue from the old position.
  Op ap{OpType::kAppend, {0}, 0, to_bytes("tail")};
  EXPECT_EQ(run(ap).positions[0].second, 10u);
}

TEST_F(SmOnly, SnapshotRestore) {
  LogStateMachine sm(env_.runtime_for(1), 1, {0, 1}, {});
  for (int i = 0; i < 8; ++i) {
    Op ap{OpType::kAppend, {static_cast<LogId>(i % 2)}, 0,
          to_bytes("d" + std::to_string(i))};
    sm.apply(0, encode_op(ap));
  }
  LogStateMachine sm2(env_.runtime_for(1), 1, {0, 1}, {});
  sm2.restore(sm.snapshot());
  EXPECT_EQ(sm.digest(), sm2.digest());
  EXPECT_EQ(sm2.next_position(0), 4u);
}

class DlogE2eTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kClient = 900;

  void build(std::size_t num_logs = 2) {
    DLogOptions opts;
    opts.num_logs = num_logs;
    opts.servers = 3;
    opts.ring_params.lambda = 2000;
    opts.ring_params.skip_interval = 5 * kMillisecond;
    opts.common_params.lambda = 2000;
    opts.common_params.skip_interval = 5 * kMillisecond;
    deployment_ = build_dlog(env_, *registry_, opts);
    client_ = std::make_unique<DLogClient>(deployment_);
  }

  std::vector<Result> run_script(std::vector<smr::Request> script) {
    auto queue = std::make_shared<std::deque<smr::Request>>(script.begin(),
                                                            script.end());
    auto results = std::make_shared<std::vector<Result>>();
    env_.spawn<smr::ClientNode>(
        kClient, smr::ClientNode::Options{1, 2 * kSecond, 0},
        smr::ClientNode::NextFn(
            [queue](std::uint32_t) -> std::optional<smr::Request> {
              if (queue->empty()) return std::nullopt;
              smr::Request r = queue->front();
              queue->pop_front();
              return r;
            }),
        smr::ClientNode::DoneFn([results](const smr::Completion& c) {
          results->push_back(decode_result(c.results.begin()->second));
        }));
    env_.sim().run_for(from_seconds(30));
    return *results;
  }

  LogStateMachine& sm(std::size_t server) {
    auto* rep =
        env_.process_as<smr::ReplicaNode>(deployment_.servers[server]);
    return dynamic_cast<LogStateMachine&>(rep->state_machine());
  }

  sim::Env env_{31};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  DLogDeployment deployment_;
  std::unique_ptr<DLogClient> client_;
};

TEST_F(DlogE2eTest, AppendReturnsPositionsInOrder) {
  build();
  std::vector<smr::Request> script;
  for (int i = 0; i < 10; ++i) {
    script.push_back(client_->append(0, to_bytes("a" + std::to_string(i))));
  }
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(res[i].positions.size(), 1u);
    EXPECT_EQ(res[i].positions[0].second, i)
        << "positions must be contiguous in submission order (single client)";
  }
}

TEST_F(DlogE2eTest, IndependentLogsIndependentPositions) {
  build();
  std::vector<smr::Request> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back(client_->append(static_cast<LogId>(i % 2),
                                     to_bytes("x" + std::to_string(i))));
  }
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 6u);
  EXPECT_EQ(res[4].positions[0].second, 2u);  // third append to log 0
  EXPECT_EQ(res[5].positions[0].second, 2u);  // third append to log 1
}

TEST_F(DlogE2eTest, MultiAppendIsAtomicAcrossLogs) {
  build();
  std::vector<smr::Request> script;
  script.push_back(client_->append(0, to_bytes("pre0")));
  script.push_back(client_->multi_append({0, 1}, to_bytes("both")));
  script.push_back(client_->append(1, to_bytes("post1")));
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 3u);
  // Multi-append returned a position in each log.
  ASSERT_EQ(res[1].positions.size(), 2u);
  EXPECT_EQ(res[1].positions[0], (std::pair<LogId, Position>{0, 1}));
  EXPECT_EQ(res[1].positions[1], (std::pair<LogId, Position>{1, 0}));
  EXPECT_EQ(res[2].positions[0].second, 1u);
  // The multi-appended entry lands in both logs at the returned positions
  // on every server.
  env_.sim().run_for(from_seconds(1));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(mrp::to_string(*sm(s).entry(0, 1)), "both");
    EXPECT_EQ(mrp::to_string(*sm(s).entry(1, 0)), "both");
  }
}

TEST_F(DlogE2eTest, ReadThroughTheStack) {
  build();
  auto res = run_script({
      client_->append(0, to_bytes("readable")),
      client_->read(0, 0),
      client_->read(0, 99),
  });
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(mrp::to_string(res[1].data), "readable");
  EXPECT_EQ(res[2].status, Status::kNotFound);
}

TEST_F(DlogE2eTest, TrimThroughTheStack) {
  build();
  std::vector<smr::Request> script;
  for (int i = 0; i < 6; ++i) {
    script.push_back(client_->append(0, to_bytes("t" + std::to_string(i))));
  }
  script.push_back(client_->trim(0, 4));
  script.push_back(client_->read(0, 2));
  script.push_back(client_->read(0, 5));
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 9u);
  EXPECT_EQ(res[7].status, Status::kTrimmed);
  EXPECT_EQ(mrp::to_string(res[8].data), "t5");
}

TEST_F(DlogE2eTest, ServersConverge) {
  build(3);
  std::vector<smr::Request> script;
  for (int i = 0; i < 30; ++i) {
    if (i % 7 == 0) {
      script.push_back(client_->multi_append({0, 1, 2}, to_bytes("m")));
    } else {
      script.push_back(client_->append(static_cast<LogId>(i % 3),
                                       to_bytes("s" + std::to_string(i))));
    }
  }
  run_script(script);
  env_.sim().run_for(from_seconds(1));
  const auto d0 = sm(0).digest();
  EXPECT_EQ(sm(1).digest(), d0);
  EXPECT_EQ(sm(2).digest(), d0);
}

}  // namespace
}  // namespace mrp::dlog
