// MRP-Store service tests: Table 1 operations, partitioning schemes, global
// ring vs independent rings scans, replica convergence, sequential
// consistency (read-your-writes through the SMR order), and online
// scale-out (live partition split, state transfer, stale-routing retry).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/elastic.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp::mrpstore {
namespace {

Op make_op(OpType type, std::string key, std::string key_hi = "",
           Bytes value = {}, std::uint32_t limit = 0) {
  Op op;
  op.type = type;
  op.key = std::move(key);
  op.key_hi = std::move(key_hi);
  op.value = std::move(value);
  op.limit = limit;
  return op;
}

TEST(StoreOps, EncodingRoundtrip) {
  Op op;
  op.type = OpType::kScan;
  op.key = "alpha";
  op.key_hi = "omega";
  op.limit = 17;
  const Op d = decode_op(encode_op(op));
  EXPECT_EQ(d.type, OpType::kScan);
  EXPECT_EQ(d.key, "alpha");
  EXPECT_EQ(d.key_hi, "omega");
  EXPECT_EQ(d.limit, 17u);

  Result res;
  res.status = Status::kNotFound;
  res.entries.emplace_back("k1", to_bytes("v1"));
  const Result r = decode_result(encode_result(res));
  EXPECT_EQ(r.status, Status::kNotFound);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].first, "k1");
}

TEST(StoreOps, SplitEncodingRoundtrip) {
  Op op;
  op.type = OpType::kSplit;
  op.schema = "v=2;p=hash:3;global=-1;parts=0:1,2|1:3,4|2:5,6";
  op.split_group = 7;
  const Op d = decode_op(encode_op(op));
  EXPECT_EQ(d.type, OpType::kSplit);
  EXPECT_EQ(d.schema, op.schema);
  EXPECT_EQ(d.split_group, 7);
}

TEST(StoreSm, Table1Semantics) {
  KvStateMachine sm;
  auto run = [&](Op op) { return decode_result(sm.apply(0, encode_op(op))); };
  EXPECT_EQ(run(make_op(OpType::kInsert, "a", "", to_bytes("1"))).status,
            Status::kOk);
  const Op rd = make_op(OpType::kRead, "a");
  EXPECT_EQ(mrp::to_string(run(rd).value), "1");
  EXPECT_EQ(run(make_op(OpType::kUpdate, "a", "", to_bytes("2"))).status,
            Status::kOk);
  EXPECT_EQ(mrp::to_string(run(rd).value), "2");
  // Update of a missing key fails (Table 1: "if existent").
  EXPECT_EQ(run(make_op(OpType::kUpdate, "zz", "", to_bytes("x"))).status,
            Status::kNotFound);
  EXPECT_EQ(run(make_op(OpType::kDelete, "a")).status, Status::kOk);
  EXPECT_EQ(run(rd).status, Status::kNotFound);
  EXPECT_EQ(run(make_op(OpType::kDelete, "a")).status, Status::kNotFound);
}

TEST(StoreSm, ScanRange) {
  KvStateMachine sm;
  for (char c = 'a'; c <= 'f'; ++c) {
    sm.apply(0, encode_op(make_op(OpType::kInsert, std::string(1, c), "",
                                  to_bytes("v"))));
  }
  const Result r = decode_result(
      sm.apply(0, encode_op(make_op(OpType::kScan, "b", "e"))));
  ASSERT_EQ(r.entries.size(), 3u);  // b, c, d (e exclusive)
  EXPECT_EQ(r.entries[0].first, "b");
  EXPECT_EQ(r.entries[2].first, "d");
  EXPECT_EQ(decode_result(sm.apply(0, encode_op(make_op(OpType::kScan, "a",
                                                        "", {}, 2))))
                .entries.size(),
            2u);
}

TEST(StoreSm, SnapshotRestore) {
  KvStateMachine sm;
  for (int i = 0; i < 50; ++i) {
    sm.apply(0, encode_op(make_op(OpType::kInsert, "k" + std::to_string(i),
                                  "", to_bytes("v" + std::to_string(i)))));
  }
  const Bytes snap = sm.snapshot();
  KvStateMachine sm2;
  sm2.restore(snap);
  EXPECT_EQ(sm2.size(), 50u);
  EXPECT_EQ(sm.digest(), sm2.digest());
}

// ---------------------------------------------------------------------------
// Partitioner edge cases (satellite: lo == hi, reversed bounds,
// single-partition schemas, empty-string keys).

TEST(Partitioning, HashCoversAllPartitionsForRanges) {
  HashPartitioner p(4);
  EXPECT_EQ(p.partition_count(), 4u);
  const int part = p.partition_for_key("user123");
  EXPECT_GE(part, 0);
  EXPECT_LT(part, 4);
  EXPECT_EQ(p.partition_for_key("user123"), part);  // stable
  EXPECT_EQ(p.partitions_for_range("a", "b").size(), 4u);
}

TEST(Partitioning, RangeRouting) {
  RangePartitioner p({"g", "n"});  // [-inf,g) [g,n) [n,+inf)
  EXPECT_EQ(p.partition_count(), 3u);
  EXPECT_EQ(p.partition_for_key("alpha"), 0);
  EXPECT_EQ(p.partition_for_key("g"), 1);
  EXPECT_EQ(p.partition_for_key("mike"), 1);
  EXPECT_EQ(p.partition_for_key("zulu"), 2);
  EXPECT_EQ(p.partitions_for_range("a", "c"), (std::vector<int>{0}));
  EXPECT_EQ(p.partitions_for_range("h", "z"), (std::vector<int>{1, 2}));
  EXPECT_EQ(p.partitions_for_range("a", ""), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(p.partitions_for_range("a", "g"), (std::vector<int>{0}));
}

TEST(Partitioning, EmptyAndReversedRangesTouchNoPartition) {
  RangePartitioner r({"g", "n"});
  // lo == hi: [x, x) is empty.
  EXPECT_TRUE(r.partitions_for_range("g", "g").empty());
  EXPECT_TRUE(r.partitions_for_range("a", "a").empty());
  // Reversed bounds: also empty (this used to walk a negative range).
  EXPECT_TRUE(r.partitions_for_range("z", "a").empty());
  EXPECT_TRUE(r.partitions_for_range("n", "g").empty());
  HashPartitioner h(4);
  EXPECT_TRUE(h.partitions_for_range("b", "b").empty());
  EXPECT_TRUE(h.partitions_for_range("z", "a").empty());
  // Open upper bound is never empty.
  EXPECT_FALSE(r.partitions_for_range("z", "").empty());
}

TEST(Partitioning, SinglePartitionSchemas) {
  RangePartitioner r({});  // no splits: one partition owns everything
  EXPECT_EQ(r.partition_count(), 1u);
  EXPECT_EQ(r.partition_for_key(""), 0);
  EXPECT_EQ(r.partition_for_key("anything"), 0);
  EXPECT_EQ(r.partitions_for_range("a", "z"), (std::vector<int>{0}));
  EXPECT_EQ(r.partitions_for_range("", ""), (std::vector<int>{0}));
  auto decoded = Partitioner::decode(r.encode());
  EXPECT_EQ(decoded->partition_count(), 1u);

  HashPartitioner h(1);
  EXPECT_EQ(h.partition_for_key("x"), 0);
  EXPECT_EQ(h.partitions_for_range("", "").size(), 1u);
}

TEST(Partitioning, EmptyStringKeys) {
  RangePartitioner r({"g"});
  // "" sorts before every split: always partition 0.
  EXPECT_EQ(r.partition_for_key(""), 0);
  // An open scan from "" touches everything.
  EXPECT_EQ(r.partitions_for_range("", ""), (std::vector<int>{0, 1}));
  // [lo="", hi="a") touches only partition 0.
  EXPECT_EQ(r.partitions_for_range("", "a"), (std::vector<int>{0}));
  HashPartitioner h(3);
  const int p = h.partition_for_key("");
  EXPECT_GE(p, 0);
  EXPECT_LT(p, 3);
}

TEST(Partitioning, EncodeDecode) {
  HashPartitioner h(5);
  auto h2 = Partitioner::decode(h.encode());
  EXPECT_EQ(h2->partition_count(), 5u);

  RangePartitioner r({"m"});
  auto r2 = Partitioner::decode(r.encode());
  EXPECT_EQ(r2->partition_count(), 2u);
  EXPECT_EQ(r2->partition_for_key("a"), 0);
  EXPECT_EQ(r2->partition_for_key("z"), 1);
}

TEST(PartitionSchema, EncodeDecodeRoundtrip) {
  PartitionSchema s;
  s.version = 3;
  s.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"g", "n"});
  s.groups = {0, 5, 1};
  s.replicas = {{100, 101}, {300, 301}, {103, 104}};
  s.global_group = 9;
  const PartitionSchema d = PartitionSchema::decode(s.encode());
  EXPECT_EQ(d.version, 3u);
  EXPECT_EQ(d.groups, s.groups);
  EXPECT_EQ(d.replicas, s.replicas);
  EXPECT_EQ(d.global_group, 9);
  EXPECT_EQ(d.group_for_key("alpha"), 0);
  EXPECT_EQ(d.group_for_key("harry"), 5);
  EXPECT_EQ(d.group_for_key("zulu"), 1);
  EXPECT_EQ(d.index_of_group(5), 1);
  EXPECT_EQ(d.index_of_group(42), -1);
}

// ---------------------------------------------------------------------------
// Split semantics at the state-machine level.

PartitionSchema two_partition_schema(std::uint64_t version) {
  PartitionSchema s;
  s.version = version;
  s.partitioner =
      std::make_shared<RangePartitioner>(std::vector<std::string>{"m"});
  s.groups = {0, 1};
  s.replicas = {{100, 101, 102}, {110, 111, 112}};
  s.global_group = -1;
  return s;
}

TEST(StoreSm, SplitExtractsMoversAndRejectsStaleRoutes) {
  KvStateMachine sm;
  sm.set_schema(two_partition_schema(1));
  auto run = [&](GroupId g, Op op) {
    return decode_result(sm.apply(g, encode_op(op)));
  };
  // Partition with group 0 owns [-inf, "m").
  EXPECT_EQ(run(0, make_op(OpType::kInsert, "apple", "", to_bytes("1"))).status,
            Status::kOk);
  EXPECT_EQ(run(0, make_op(OpType::kInsert, "grape", "", to_bytes("2"))).status,
            Status::kOk);
  // A key group 0 does not own earns a stale-routing reply, not an insert.
  EXPECT_EQ(run(0, make_op(OpType::kInsert, "zebra", "", to_bytes("x"))).status,
            Status::kStaleRouting);
  EXPECT_EQ(sm.size(), 2u);

  // Split [-inf,"m") at "c": keys >= "c" move to new group 7.
  PartitionSchema next = two_partition_schema(2);
  next.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"c", "m"});
  next.groups = {0, 7, 1};
  next.replicas = {{100, 101, 102}, {300, 301, 302}, {110, 111, 112}};
  Op split;
  split.type = OpType::kSplit;
  split.schema = next.encode();
  split.split_group = 7;
  const Result r = run(0, split);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(mrp::to_string(r.value), "1");  // "grape" moved
  EXPECT_EQ(sm.size(), 1u);
  EXPECT_TRUE(sm.get("apple").has_value());
  EXPECT_FALSE(sm.get("grape").has_value());
  EXPECT_EQ(sm.schema().version, 2u);
  EXPECT_EQ(sm.handoff_version(), 2u);
  ASSERT_NE(sm.handoff(2), nullptr);
  EXPECT_EQ(sm.handoff(2)->target, 7);
  EXPECT_EQ(sm.handoff(2)->source, 0);

  // Post-split, the shed key is rejected on the old group...
  EXPECT_EQ(run(0, make_op(OpType::kRead, "grape")).status,
            Status::kStaleRouting);
  // ...and a replay of the same split is an idempotent no-op.
  const Result replay = run(0, split);
  EXPECT_EQ(replay.status, Status::kOk);
  EXPECT_EQ(mrp::to_string(replay.value), "0");

  // A fresh replica of the new partition installs the piece and owns the
  // moved key under schema v2.
  KvStateMachine fresh;
  fresh.set_schema(two_partition_schema(1));
  fresh.install_handoff(sm.handoff(2)->state);
  EXPECT_EQ(fresh.schema().version, 2u);
  EXPECT_EQ(mrp::to_string(*fresh.get("grape")), "2");
  EXPECT_EQ(decode_result(
                fresh.apply(7, encode_op(make_op(OpType::kRead, "grape"))))
                .status,
            Status::kOk);
}

TEST(StoreSm, SequentialSplitsRetainEveryHandoffPiece) {
  KvStateMachine sm;
  sm.set_schema(two_partition_schema(1));
  auto run = [&](GroupId g, Op op) {
    return decode_result(sm.apply(g, encode_op(op)));
  };
  run(0, make_op(OpType::kInsert, "dog", "", to_bytes("d")));
  run(0, make_op(OpType::kInsert, "ant", "", to_bytes("a")));

  // Split 1 (v2): ["c","m") moves to group 7.
  PartitionSchema v2 = two_partition_schema(2);
  v2.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"c", "m"});
  v2.groups = {0, 7, 1};
  v2.replicas = {{100, 101, 102}, {300, 301, 302}, {110, 111, 112}};
  Op split1;
  split1.type = OpType::kSplit;
  split1.schema = v2.encode();
  split1.split_group = 7;
  EXPECT_EQ(run(0, split1).status, Status::kOk);

  // Split 2 (v3): ["a","c") moves to group 8 — before split 1's replicas
  // necessarily finished bootstrapping.
  PartitionSchema v3 = v2;
  v3.version = 3;
  v3.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"a", "c", "m"});
  v3.groups = {0, 8, 7, 1};
  v3.replicas = {{100, 101, 102},
                 {400, 401, 402},
                 {300, 301, 302},
                 {110, 111, 112}};
  Op split2;
  split2.type = OpType::kSplit;
  split2.schema = v3.encode();
  split2.split_group = 8;
  EXPECT_EQ(run(0, split2).status, Status::kOk);

  // Both pieces remain pullable: a slow bootstrap from split 1 can still
  // fetch its piece after split 2 executed.
  EXPECT_EQ(sm.handoff_version(), 3u);
  ASSERT_NE(sm.handoff(2), nullptr);
  EXPECT_EQ(sm.handoff(2)->target, 7);
  KvStateMachine p7;
  p7.install_handoff(sm.handoff(2)->state);
  EXPECT_EQ(mrp::to_string(*p7.get("dog")), "d");
  ASSERT_NE(sm.handoff(3), nullptr);
  KvStateMachine p8;
  p8.install_handoff(sm.handoff(3)->state);
  EXPECT_EQ(mrp::to_string(*p8.get("ant")), "a");
}

TEST(StoreSm, VersionedScanFromStaleSchemaIsRejected) {
  KvStateMachine sm;
  sm.set_schema(two_partition_schema(3));
  sm.preload("b", to_bytes("v"));
  auto scan_with = [&](std::uint64_t version) {
    Op op = make_op(OpType::kScan, "a", "z");
    op.schema_version = version;
    return decode_result(sm.apply(0, encode_op(op))).status;
  };
  EXPECT_EQ(scan_with(0), Status::kOk);  // unversioned: legacy behavior
  EXPECT_EQ(scan_with(3), Status::kOk);  // current schema
  EXPECT_EQ(scan_with(4), Status::kOk);  // replica behind: still complete
  EXPECT_EQ(scan_with(2), Status::kStaleRouting);  // client behind: refresh
}

TEST(StoreSm, SnapshotCarriesSchemaAndHandoff) {
  KvStateMachine sm;
  sm.set_schema(two_partition_schema(1));
  sm.apply(0, encode_op(make_op(OpType::kInsert, "dog", "", to_bytes("v"))));
  PartitionSchema next = two_partition_schema(2);
  next.partitioner = std::make_shared<RangePartitioner>(
      std::vector<std::string>{"c", "m"});
  next.groups = {0, 7, 1};
  next.replicas = {{100, 101, 102}, {300, 301, 302}, {110, 111, 112}};
  Op split;
  split.type = OpType::kSplit;
  split.schema = next.encode();
  split.split_group = 7;
  sm.apply(0, encode_op(split));
  sm.set_handoff_tuple(2, {{0, 17}, {9, 4}});

  KvStateMachine restored;
  restored.restore(sm.snapshot());
  EXPECT_EQ(restored.schema().version, 2u);
  EXPECT_EQ(restored.handoff_version(), 2u);
  ASSERT_NE(restored.handoff(2), nullptr);
  EXPECT_EQ(restored.handoff(2)->target, 7);
  EXPECT_EQ(restored.handoff(2)->state, sm.handoff(2)->state);
  EXPECT_EQ(restored.handoff(2)->tuple, sm.handoff(2)->tuple);
  EXPECT_EQ(restored.digest(), sm.digest());
}

// ---------------------------------------------------------------------------
// End-to-end store tests.

class StoreE2eTest : public ::testing::Test {
 protected:
  static constexpr ProcessId kClient = 900;

  void build(bool global_ring, const std::string& partitioner = "",
             std::size_t partitions = 3) {
    StoreOptions so;
    so.partitions = partitions;
    so.replicas_per_partition = 3;
    so.global_ring = global_ring;
    so.partitioner = partitioner;
    if (global_ring) {
      // Keep the global ring flowing for merge progress.
      so.global_params.lambda = 2000;
      so.global_params.skip_interval = 5 * kMillisecond;
      so.ring_params.lambda = 2000;
      so.ring_params.skip_interval = 5 * kMillisecond;
    }
    deployment_ = build_store(env_, *registry_, so);
    client_helper_ = std::make_unique<StoreClient>(deployment_);
  }

  /// Runs a scripted sequence of requests to completion; returns results.
  /// Each call spawns a fresh client process (`pid`).
  std::vector<Result> run_script(std::vector<smr::Request> script,
                                 ProcessId pid = kClient,
                                 StoreClient* reroute_via = nullptr,
                                 bool multi_merge = false) {
    auto queue = std::make_shared<std::deque<smr::Request>>(script.begin(),
                                                            script.end());
    auto results = std::make_shared<std::vector<Result>>();
    auto* client = env_.spawn<smr::ClientNode>(
        pid, smr::ClientNode::Options{1, 2 * kSecond, 0},
        smr::ClientNode::NextFn(
            [queue](std::uint32_t) -> std::optional<smr::Request> {
              if (queue->empty()) return std::nullopt;
              smr::Request r = queue->front();
              queue->pop_front();
              return r;
            }),
        smr::ClientNode::DoneFn([results, multi_merge](
                                    const smr::Completion& c) {
          if (c.results.size() == 1) {
            results->push_back(decode_result(c.results.begin()->second));
          } else if (multi_merge) {
            results->push_back(StoreClient::merge_multi(c.results));
          } else {
            results->push_back(StoreClient::merge_scan(c.results));
          }
        }));
    if (reroute_via != nullptr) {
      client->set_reroute(reroute_via->reroute_fn(registry_.get()));
    }
    last_client_ = client;
    env_.sim().run_for(from_seconds(30));
    return *results;
  }

  sim::Env env_{11};
  std::unique_ptr<coord::Registry> registry_ =
      std::make_unique<coord::Registry>(
          env_.oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);
  StoreDeployment deployment_;
  std::unique_ptr<StoreClient> client_helper_;
  smr::ClientNode* last_client_ = nullptr;
};

TEST_F(StoreE2eTest, CrudThroughTheStack) {
  build(false);
  auto res = run_script({
      client_helper_->insert("apple", to_bytes("red")),
      client_helper_->read("apple"),
      client_helper_->update("apple", to_bytes("green")),
      client_helper_->read("apple"),
      client_helper_->remove("apple"),
      client_helper_->read("apple"),
  });
  ASSERT_EQ(res.size(), 6u);
  EXPECT_EQ(res[0].status, Status::kOk);
  EXPECT_EQ(mrp::to_string(res[1].value), "red");
  EXPECT_EQ(res[2].status, Status::kOk);
  EXPECT_EQ(mrp::to_string(res[3].value), "green");
  EXPECT_EQ(res[4].status, Status::kOk);
  EXPECT_EQ(res[5].status, Status::kNotFound);
}

TEST_F(StoreE2eTest, ReadYourWritesAcrossKeys) {
  build(false);
  std::vector<smr::Request> script;
  for (int i = 0; i < 20; ++i) {
    script.push_back(client_helper_->insert("key" + std::to_string(i),
                                            to_bytes(std::to_string(i))));
    script.push_back(client_helper_->read("key" + std::to_string(i)));
  }
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 40u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(res[static_cast<std::size_t>(2 * i)].status, Status::kOk);
    EXPECT_EQ(mrp::to_string(res[static_cast<std::size_t>(2 * i + 1)].value),
              std::to_string(i))
        << "read after insert must observe the write";
  }
}

TEST_F(StoreE2eTest, GlobalRingScanSeesAllPartitions) {
  build(true);
  std::vector<smr::Request> script;
  for (int i = 0; i < 12; ++i) {
    script.push_back(client_helper_->insert("scan" + std::to_string(i),
                                            to_bytes("v")));
  }
  script.push_back(client_helper_->scan("scan", "scao", 0));
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 13u);
  EXPECT_EQ(res.back().entries.size(), 12u)
      << "global-ring scan must return keys from every partition";
}

TEST_F(StoreE2eTest, IndependentRingsScanAlsoWorks) {
  build(false);
  std::vector<smr::Request> script;
  for (int i = 0; i < 12; ++i) {
    script.push_back(client_helper_->insert("ind" + std::to_string(i),
                                            to_bytes("v")));
  }
  script.push_back(client_helper_->scan("ind", "ine", 0));
  auto res = run_script(script);
  EXPECT_EQ(res.back().entries.size(), 12u);
}

TEST_F(StoreE2eTest, RangePartitionedScanTouchesOnlyOverlap) {
  build(false, RangePartitioner({"h", "p"}).encode());
  std::vector<smr::Request> script;
  script.push_back(client_helper_->insert("aaa", to_bytes("1")));
  script.push_back(client_helper_->insert("kkk", to_bytes("2")));
  script.push_back(client_helper_->insert("zzz", to_bytes("3")));
  auto res = run_script(script);
  ASSERT_EQ(res.size(), 3u);
  // A scan of [a, c) touches only partition 0.
  auto req = client_helper_->scan("a", "c", 0);
  EXPECT_EQ(req.sends.size(), 1u);
  EXPECT_EQ(req.expected_partitions, 1u);
  // A scan of [j, z) touches partitions 1 and 2.
  auto req2 = client_helper_->scan("j", "zz", 0);
  EXPECT_EQ(req2.sends.size(), 2u);
  // An empty range still builds a valid (single-partition) request.
  auto req3 = client_helper_->scan("q", "q", 0);
  EXPECT_EQ(req3.sends.size(), 1u);
}

TEST_F(StoreE2eTest, ReplicasConvergeToIdenticalState) {
  build(false);
  std::vector<smr::Request> script;
  for (int i = 0; i < 60; ++i) {
    script.push_back(client_helper_->insert("c" + std::to_string(i % 20),
                                            to_bytes(std::to_string(i))));
  }
  run_script(script);
  env_.sim().run_for(from_seconds(2));
  for (std::size_t p = 0; p < 3; ++p) {
    std::uint64_t d0 = 0;
    for (std::size_t r = 0; r < 3; ++r) {
      auto* rep =
          env_.process_as<smr::ReplicaNode>(deployment_.replicas[p][r]);
      auto& kv = dynamic_cast<KvStateMachine&>(rep->state_machine());
      if (r == 0) {
        d0 = kv.digest();
      } else {
        EXPECT_EQ(kv.digest(), d0) << "partition " << p << " replica " << r;
      }
    }
  }
}

TEST_F(StoreE2eTest, KeysRouteToOwningPartitionOnly) {
  build(false);
  std::vector<smr::Request> script;
  for (int i = 0; i < 30; ++i) {
    script.push_back(
        client_helper_->insert("route" + std::to_string(i), to_bytes("x")));
  }
  run_script(script);
  env_.sim().run_for(from_seconds(1));
  // Each key must exist in exactly one partition.
  for (int i = 0; i < 30; ++i) {
    const std::string key = "route" + std::to_string(i);
    int holders = 0;
    for (std::size_t p = 0; p < 3; ++p) {
      auto* rep =
          env_.process_as<smr::ReplicaNode>(deployment_.replicas[p][0]);
      auto& kv = dynamic_cast<KvStateMachine&>(rep->state_machine());
      if (kv.get(key).has_value()) ++holders;
    }
    EXPECT_EQ(holders, 1) << key;
  }
}

// ---------------------------------------------------------------------------
// Online scale-out: live split with state transfer and stale-routing retry.

TEST_F(StoreE2eTest, LiveSplitMovesKeysAndStaleClientsReroute) {
  build(false, RangePartitioner({"m"}).encode(), 2);

  // Phase 1: load both halves of partition 0's range plus partition 1.
  std::vector<smr::Request> load;
  for (int i = 0; i < 10; ++i) {
    load.push_back(client_helper_->insert("g" + std::to_string(i),
                                          to_bytes("lo" + std::to_string(i))));
    load.push_back(client_helper_->insert("k" + std::to_string(i),
                                          to_bytes("hi" + std::to_string(i))));
    load.push_back(client_helper_->insert("t" + std::to_string(i),
                                          to_bytes("p1" + std::to_string(i))));
  }
  auto res = run_script(load);
  ASSERT_EQ(res.size(), 30u);

  // Keep a pre-split routing copy: this client will go stale.
  StoreClient stale_client(deployment_);

  // Phase 2: split partition 0 at "h" — keys in ["h", "m") move to a new
  // partition (group 10, replicas 300-302) while the store keeps running.
  SplitSpec spec;
  spec.source_group = deployment_.partition_groups[0];
  spec.split_key = "h";
  spec.new_group = 10;
  spec.new_replicas = {300, 301, 302};
  spec.admin_pid = 890;
  const std::uint64_t v = split_partition(env_, *registry_, deployment_, spec);
  EXPECT_EQ(v, 2u);
  env_.sim().run_for(from_seconds(5));

  // The registry carries the successor schema.
  EXPECT_NE(registry_->schema(kStoreSchemaKey).encoded.find("v=2"),
            std::string::npos);

  // State transfer: the moved keys live on the new replicas (and are gone
  // from the source), untouched keys stayed.
  for (int i = 0; i < 10; ++i) {
    const std::string moved = "k" + std::to_string(i);
    EXPECT_TRUE(deployment_.replica_get(env_, 300, moved).has_value())
        << moved;
    EXPECT_FALSE(
        deployment_.replica_get(env_, deployment_.replicas[0][0], moved)
            .has_value())
        << moved;
    EXPECT_TRUE(deployment_
                    .replica_get(env_, deployment_.replicas[0][0],
                                 "g" + std::to_string(i))
                    .has_value());
  }
  // All three new replicas bootstrapped and agree.
  const std::uint64_t d300 = deployment_.replica_digest(env_, 300);
  EXPECT_EQ(deployment_.replica_digest(env_, 301), d300);
  EXPECT_EQ(deployment_.replica_digest(env_, 302), d300);
  for (ProcessId pid : spec.new_replicas) {
    EXPECT_FALSE(env_.process_as<StoreReplicaNode>(pid)->bootstrapping());
  }

  // Phase 3: a client with the stale schema reads and writes moved keys;
  // the kStaleRouting reply + reroute_fn recovers transparently.
  auto stale_res = run_script(
      {
          stale_client.read("k3"),
          stale_client.insert("k99", to_bytes("fresh")),
          stale_client.read("k99"),
          stale_client.read("g3"),  // untouched key: no reroute needed
          // A stale scan over the moved range: versioned routing rejects it
          // (it would silently miss the new partition) and the reroute hook
          // rebuilds it under schema v2.
          stale_client.scan("g", "z", 0),
      },
      901, &stale_client);
  ASSERT_EQ(stale_res.size(), 5u);
  EXPECT_EQ(stale_res[0].status, Status::kOk);
  EXPECT_EQ(mrp::to_string(stale_res[0].value), "hi3");
  EXPECT_EQ(stale_res[1].status, Status::kOk);
  EXPECT_EQ(mrp::to_string(stale_res[2].value), "fresh");
  EXPECT_EQ(mrp::to_string(stale_res[3].value), "lo3");
  // g0-g9 + k0-k9 + k99 + t0-t9: nothing silently dropped from the scan.
  EXPECT_EQ(stale_res[4].entries.size(), 31u);
  EXPECT_GE(last_client_->reroutes(), 2u);
  // The reroute hook refreshed the client's deployment to schema v2.
  EXPECT_EQ(stale_client.deployment().schema_version, 2u);
  EXPECT_EQ(stale_client.deployment().partition_groups.size(), 3u);
}

// ---------------------------------------------------------------------------
// Atomic cross-partition operations through the full stack: request routing
// (one copy per owning ring), replica-side gather, execution at the merged
// position of the last addressed group, and client-side reply merge.

TEST_F(StoreE2eTest, AtomicMultiOpsAcrossPartitions) {
  build(false, RangePartitioner({"m"}).encode(), 2);

  // Cross-partition requests fan one send to each owning ring and expect
  // both partitions to answer; same-partition multi ops degrade to an
  // ordinary single-group command.
  const auto cross_put = client_helper_->multi_put(
      {{"a1", to_bytes("100")}, {"z1", to_bytes("100")}});
  EXPECT_EQ(cross_put.sends.size(), 2u);
  EXPECT_EQ(cross_put.expected_partitions, 2u);
  EXPECT_TRUE(cross_put.atomic);
  const auto local_get = client_helper_->multi_get({"a1", "a2"});
  EXPECT_EQ(local_get.sends.size(), 1u);
  EXPECT_EQ(local_get.expected_partitions, 1u);

  auto res = run_script(
      {
          cross_put,
          client_helper_->multi_get({"a1", "z1"}),
          client_helper_->transfer("a1", "z1", 30),
          client_helper_->multi_get({"a1", "z1"}),
          client_helper_->transfer("z1", "a1", 5),
          client_helper_->multi_get({"a1", "z1", "missing"}),
          local_get,
      },
      kClient, nullptr, /*multi_merge=*/true);
  ASSERT_EQ(res.size(), 7u);

  // multi_put wrote both halves atomically.
  EXPECT_EQ(res[0].status, Status::kOk);
  ASSERT_EQ(res[1].entries.size(), 2u);
  EXPECT_EQ(res[1].entries[0].first, "a1");
  EXPECT_EQ(mrp::to_string(res[1].entries[0].second), "100");
  EXPECT_EQ(res[1].entries[1].first, "z1");
  EXPECT_EQ(mrp::to_string(res[1].entries[1].second), "100");

  // transfer(a1 -> z1, 30): read-your-transfer through the SMR order.
  EXPECT_EQ(res[2].status, Status::kOk);
  ASSERT_EQ(res[3].entries.size(), 2u);
  EXPECT_EQ(mrp::to_string(res[3].entries[0].second), "70");
  EXPECT_EQ(mrp::to_string(res[3].entries[1].second), "130");

  // Reverse transfer lands too; a missing key is simply absent from the
  // merged entries (not an error).
  ASSERT_EQ(res[5].entries.size(), 2u);
  EXPECT_EQ(mrp::to_string(res[5].entries[0].second), "75");
  EXPECT_EQ(mrp::to_string(res[5].entries[1].second), "125");

  // Single-partition degradation: only the key that exists comes back.
  ASSERT_EQ(res[6].entries.size(), 1u);
  EXPECT_EQ(res[6].entries[0].first, "a1");

  // Every replica of both partitions agrees on the final balances —
  // conservation of the 200 written in, exactly-once at each replica.
  env_.sim().run_for(from_seconds(2));
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t r = 0; r < 3; ++r) {
      const ProcessId pid = deployment_.replicas[p][r];
      const auto a = deployment_.replica_get(env_, pid, "a1");
      const auto z = deployment_.replica_get(env_, pid, "z1");
      if (p == 0) {
        ASSERT_TRUE(a.has_value()) << "replica " << pid;
        EXPECT_EQ(mrp::to_string(*a), "75") << "replica " << pid;
        EXPECT_FALSE(z.has_value()) << "replica " << pid;
      } else {
        ASSERT_TRUE(z.has_value()) << "replica " << pid;
        EXPECT_EQ(mrp::to_string(*z), "125") << "replica " << pid;
        EXPECT_FALSE(a.has_value()) << "replica " << pid;
      }
    }
  }
}

TEST_F(StoreE2eTest, SessionDedupStaysBoundedAcrossPartitions) {
  // Two partitions plus the global ring. One client mixes single-key ops on
  // both partitions, transfers between them and global scans, so each
  // replica sees only part of every worker's requests. Its exact dedup
  // record must still close up behind each session instead of holding
  // every executed seq above a floor that never moves.
  build(true, RangePartitioner({"m"}).encode(), 2);
  constexpr std::uint32_t kWorkers = 4;
  constexpr std::uint64_t kRequests = 5000;
  std::uint64_t issued = 0;
  auto* client = env_.spawn<smr::ClientNode>(
      kClient, smr::ClientNode::Options{kWorkers, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [&](std::uint32_t) -> std::optional<smr::Request> {
            if (issued >= kRequests) return std::nullopt;
            const std::uint64_t i = issued++;
            const std::string a = "a" + std::to_string(i % 17);
            const std::string z = "z" + std::to_string(i % 13);
            switch (i % 10) {
              case 0:
              case 1:
                return client_helper_->read(a);
              case 2:
              case 3:
                return client_helper_->read(z);
              case 4:
                return client_helper_->update(a, to_bytes("5"));
              case 5:
                return client_helper_->update(z, to_bytes("5"));
              case 6:
              case 7:
                return client_helper_->transfer(a, z, 1);
              case 8:
                return client_helper_->transfer(z, a, 1);
              default:
                return client_helper_->scan("a", "zz", 0);
            }
          }),
      smr::ClientNode::DoneFn(nullptr));

  std::size_t worst_session = 0;
  std::size_t most_sessions = 0;
  for (int step = 0; step < 600 && client->completed() < kRequests; ++step) {
    env_.sim().run_for(from_millis(50));
    for (ProcessId pid : deployment_.all_replicas()) {
      const auto d = env_.process_as<smr::ReplicaNode>(pid)->dedup_stats();
      worst_session = std::max(worst_session, d.above_floor_max);
      most_sessions = std::max(most_sessions, d.sessions);
    }
  }
  ASSERT_EQ(client->completed(), kRequests);
  EXPECT_LE(worst_session, 2u)
      << "executed seqs pile up above a session's dedup floor";
  // Per worker: its own partition's single-key session, the transfer
  // session and the global-ring scan session.
  EXPECT_LE(most_sessions, 3 * kWorkers);
}

/// A ClientNode that counts replies per (session, seq, partition tag).
class ReplyCountingClient final : public smr::ClientNode {
 public:
  using Key = std::tuple<smr::SessionId, std::uint64_t, int>;
  ReplyCountingClient(runtime::Runtime& rt, Options options,
                      NextFn next, DoneFn done, std::map<Key, int>* counts)
      : ClientNode(rt, options, std::move(next), std::move(done)),
        counts_(counts) {}

  void on_message(ProcessId from, const runtime::Message& m) override {
    if (m.kind() == smr::kMsgClientReply) {
      const auto& r = runtime::msg_cast<smr::MsgClientReply>(m);
      ++(*counts_)[{r.session, r.seq, r.partition_tag}];
    }
    ClientNode::on_message(from, m);
  }

 private:
  std::map<Key, int>* counts_;
};

TEST_F(StoreE2eTest, OneReplyPerAddressedPartition) {
  // Two partitions plus the global ring: single-key ops, cross-partition
  // transfers and multi_gets (one command per partition ring) and global
  // scans (one command every replica of both partitions executes). Each
  // command is answered once by each partition it reaches.
  build(true, RangePartitioner({"m"}).encode(), 2);
  constexpr std::uint64_t kRequests = 1500;
  std::uint64_t issued = 0;
  std::map<ReplyCountingClient::Key, int> counts;
  std::map<std::size_t, std::uint64_t> by_fanout;
  auto* client = env_.spawn<ReplyCountingClient>(
      kClient, smr::ClientNode::Options{4, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [&](std::uint32_t) -> std::optional<smr::Request> {
            if (issued >= kRequests) return std::nullopt;
            const std::uint64_t i = issued++;
            const std::string a = "a" + std::to_string(i % 17);
            const std::string z = "z" + std::to_string(i % 13);
            switch (i % 6) {
              case 0:
                return client_helper_->update(a, to_bytes("5"));
              case 1:
                return client_helper_->read(z);
              case 2:
                return client_helper_->transfer(a, z, 1);
              case 3:
                return client_helper_->multi_get({a, z});
              case 4:
                return client_helper_->scan("a", "zz", 0);
              default:
                return client_helper_->transfer(z, a, 1);
            }
          }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        ++by_fanout[c.results.size()];
      }),
      &counts);
  for (int step = 0; step < 600 && client->completed() < kRequests; ++step) {
    env_.sim().run_for(from_millis(50));
  }
  env_.sim().run_for(from_millis(200));

  ASSERT_EQ(client->completed(), kRequests);
  EXPECT_EQ(client->retries(), 0u);
  EXPECT_EQ(by_fanout[1], kRequests / 3);  // update, read
  EXPECT_EQ(by_fanout[2], kRequests * 2 / 3);
  std::uint64_t replies = 0;
  for (const auto& [key, n] : counts) {
    EXPECT_EQ(n, 1) << "session " << std::get<0>(key) << " seq "
                    << std::get<1>(key) << " partition " << std::get<2>(key);
    replies += static_cast<std::uint64_t>(n);
  }
  EXPECT_EQ(replies, by_fanout[1] + 2 * by_fanout[2]);
}

}  // namespace
}  // namespace mrp::mrpstore
