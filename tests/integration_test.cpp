// End-to-end integration: geo-distributed MRP-Store across four simulated
// regions (the paper's Figure 7 topology), dLog with mixed workloads, and a
// full crash/recover schedule against a loaded store.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

/// EC2-like one-way latencies between regions (ms):
/// 0=eu-west, 1=us-east, 2=us-west-1, 3=us-west-2.
void configure_wan(sim::Env& env) {
  env.net().set_site_local_latency(0, from_micros(50));
  env.net().set_site_local_latency(1, from_micros(50));
  env.net().set_site_local_latency(2, from_micros(50));
  env.net().set_site_local_latency(3, from_micros(50));
  env.net().set_site_latency(0, 1, from_millis(40));
  env.net().set_site_latency(0, 2, from_millis(70));
  env.net().set_site_latency(0, 3, from_millis(65));
  env.net().set_site_latency(1, 2, from_millis(35));
  env.net().set_site_latency(1, 3, from_millis(30));
  env.net().set_site_latency(2, 3, from_millis(10));
  env.net().set_site_bandwidth(1e9);
}

TEST(GeoIntegration, StoreAcrossFourRegions) {
  sim::Env env(404);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           200 * kMillisecond);
  configure_wan(env);

  mrpstore::StoreOptions so;
  so.partitions = 4;
  so.replicas_per_partition = 3;
  so.global_ring = true;
  // One partition per region: replica r of partition p is process
  // first_pid + p * replicas_per_partition + r.
  for (int p = 0; p < 4; ++p) {
    for (int r = 0; r < 3; ++r) env.net().set_site(so.first_pid + p * 3 + r, p);
  }
  // WAN configuration from the paper: M=1, Delta=20ms, lambda=2000.
  so.ring_params.lambda = 2000;
  so.ring_params.skip_interval = 20 * kMillisecond;
  so.ring_params.gap_timeout = 200 * kMillisecond;
  so.global_params = so.ring_params;
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);

  // One client per region, writing region-local keys.
  std::vector<smr::ClientNode*> clients;
  for (int region = 0; region < 4; ++region) {
    const ProcessId cpid = 800 + region;
    env.net().set_site(cpid, region);
    auto* c = env.spawn<smr::ClientNode>(
        cpid, smr::ClientNode::Options{4, 5 * kSecond, 0},
        smr::ClientNode::NextFn(
            [&helper, &dep, region, n = 0](std::uint32_t) mutable
            -> std::optional<smr::Request> {
              // Address the region's own partition directly (clients know
              // the schema; here we pick keys by partition explicitly).
              const std::string key =
                  "r" + std::to_string(region) + "k" + std::to_string(n++);
              smr::Request r;
              r.sends.push_back(smr::Request::Send{
                  dep.partition_groups[static_cast<std::size_t>(region)],
                  dep.replicas[static_cast<std::size_t>(region)]});
              mrpstore::Op op;
              op.type = mrpstore::OpType::kInsert;
              op.key = key;
              op.value = to_bytes("v");
              r.op = mrpstore::encode_op(op);
              return r;
            }),
        smr::ClientNode::DoneFn(nullptr));
    clients.push_back(c);
  }
  env.sim().run_for(from_seconds(20));
  for (auto* c : clients) c->stop();
  env.sim().run_for(from_seconds(5));

  // Every region made progress.
  for (int region = 0; region < 4; ++region) {
    EXPECT_GT(clients[static_cast<std::size_t>(region)]->completed(), 100u)
        << "region " << region << " starved";
  }
  // All replicas of each partition converge.
  for (std::size_t p = 0; p < 4; ++p) {
    std::uint64_t d0 = 0;
    for (std::size_t r = 0; r < 3; ++r) {
      auto* rep = env.process_as<smr::ReplicaNode>(dep.replicas[p][r]);
      auto& kv =
          dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine());
      if (r == 0) {
        d0 = kv.digest();
      } else {
        EXPECT_EQ(kv.digest(), d0);
      }
    }
  }
}

TEST(GeoIntegration, GlobalScanIsConsistentUnderConcurrentWrites) {
  sim::Env env(405);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  mrpstore::StoreOptions so;
  so.partitions = 3;
  so.global_ring = true;
  so.ring_params.lambda = 5000;
  so.ring_params.skip_interval = 5 * kMillisecond;
  so.global_params = so.ring_params;
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);

  // Sequential consistency (Section 6.1): one session inserts a#i, then
  // b#i (different partitions), then scans. The session's operations are
  // non-overlapping and ordered, so each scan must observe every pair it
  // issued before — never b#i without a#i. (A real-time guarantee across
  // *different* clients is not promised and not tested.)
  int violations = 0;
  int scans = 0;
  // Paced at one operation per 2 ms: each scan reads the whole store, so an
  // unpaced session's work grows with the square of its operation count.
  env.spawn<smr::ClientNode>(
      850, smr::ClientNode::Options{1, 5 * kSecond, 0, 2 * kMillisecond},
      smr::ClientNode::NextFn(
          [&helper, n = 0](std::uint32_t) mutable
          -> std::optional<smr::Request> {
            const int phase = n % 3;
            const int i = n / 3;
            ++n;
            if (phase == 0) return helper.insert("a" + std::to_string(i), to_bytes("x"));
            if (phase == 1) return helper.insert("b" + std::to_string(i), to_bytes("x"));
            return helper.scan("", "", 0);
          }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        if (c.results.size() < 3) return;  // not a scan
        ++scans;
        auto merged = mrpstore::StoreClient::merge_scan(c.results);
        std::set<std::string> keys;
        for (auto& [k, v] : merged.entries) keys.insert(k);
        for (const auto& k : keys) {
          if (k[0] == 'b' && !keys.count("a" + k.substr(1))) ++violations;
        }
      }));
  env.sim().run_for(from_seconds(10));
  EXPECT_GT(scans, 5);
  EXPECT_EQ(violations, 0)
      << "scan observed b#i without a#i despite session order";
}

TEST(GeoIntegration, DlogMixedWorkloadWithCrash) {
  sim::Env env(406);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);

  dlog::DLogOptions opts;
  opts.num_logs = 3;
  opts.ring_params.lambda = 3000;
  opts.ring_params.skip_interval = 5 * kMillisecond;
  opts.ring_params.gap_timeout = 20 * kMillisecond;
  opts.common_params = opts.ring_params;
  opts.replica_options.checkpoint.interval = 500 * kMillisecond;
  opts.replica_options.trim.interval = kSecond;
  auto dep = dlog::build_dlog(env, registry, opts);
  dlog::DLogClient client(dep);

  Rng rng(17);
  // Paced (one operation per worker per 2 ms) so the run's size does not
  // depend on how fast the merge delivers.
  auto* c = env.spawn<smr::ClientNode>(
      860, smr::ClientNode::Options{8, 2 * kSecond, 0, 2 * kMillisecond},
      smr::ClientNode::NextFn(
          [&client, &rng](std::uint32_t) -> std::optional<smr::Request> {
            const auto pick = rng.next_below(10);
            if (pick < 7) {
              return client.append(
                  static_cast<dlog::LogId>(rng.next_below(3)),
                  Bytes(128, 0x5a));
            }
            if (pick < 9) {
              return client.multi_append({0, 1, 2}, Bytes(128, 0x5b));
            }
            return client.read(static_cast<dlog::LogId>(rng.next_below(3)),
                               rng.next_below(50));
          }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(3));
  env.crash(dep.servers[2]);
  env.sim().run_for(from_seconds(3));
  env.recover(dep.servers[2]);
  env.sim().run_for(from_seconds(4));
  c->stop();
  env.sim().run_for(from_seconds(3));

  EXPECT_GT(c->completed(), 500u);
  auto digest = [&](std::size_t s) {
    auto* rep = env.process_as<smr::ReplicaNode>(dep.servers[s]);
    return dynamic_cast<dlog::LogStateMachine&>(rep->state_machine())
        .digest();
  };
  EXPECT_EQ(digest(0), digest(1));
  EXPECT_EQ(digest(0), digest(2)) << "recovered dlog server diverged";
}

TEST(GeoIntegration, StoreSurvivesRollingRestarts) {
  sim::Env env(407);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);

  mrpstore::StoreOptions so;
  so.partitions = 2;
  so.global_ring = false;
  so.ring_params.gap_timeout = 20 * kMillisecond;
  so.replica_options.checkpoint.interval = 400 * kMillisecond;
  so.replica_options.trim.interval = 800 * kMillisecond;
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);

  auto* c = env.spawn<smr::ClientNode>(
      870, smr::ClientNode::Options{4, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [&helper, n = 0](std::uint32_t) mutable
          -> std::optional<smr::Request> {
            const int key = n % 100;
            ++n;
            return helper.insert("roll" + std::to_string(key),
                                 to_bytes(std::to_string(n)));
          }),
      smr::ClientNode::DoneFn(nullptr));

  // Rolling restart: every replica of partition 0 crashes and recovers in
  // sequence, never two at once.
  for (std::size_t r = 0; r < 3; ++r) {
    env.sim().run_for(from_seconds(2));
    env.crash(dep.replicas[0][r]);
    env.sim().run_for(from_seconds(2));
    env.recover(dep.replicas[0][r]);
  }
  env.sim().run_for(from_seconds(4));
  c->stop();
  env.sim().run_for(from_seconds(3));

  EXPECT_GT(c->completed(), 1000u);
  std::uint64_t d0 = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    auto* rep = env.process_as<smr::ReplicaNode>(dep.replicas[0][r]);
    auto& kv = dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine());
    if (r == 0) {
      d0 = kv.digest();
    } else {
      EXPECT_EQ(kv.digest(), d0) << "replica " << r << " diverged";
    }
  }
}

}  // namespace
}  // namespace mrp
