// Figure 9 (extension) — elastic scale-out: committed-throughput timeline
// of an MRP-Store while a partition is split into a new ring mid-run.
//
// One partition (ring of 3, CPU-bound) serves a YCSB-A load from 100
// closed-loop client threads. At t=4s the key range is split at its median:
// a new ring + 3 fresh replicas take over the upper half via ordered
// cutover and live state transfer, while clients recover from stale routes
// through the kStaleRouting refresh-and-retry loop. Reported: 250 ms
// throughput timeline, pre/post-split averages, reroute and transfer
// stats — and a hard zero-divergence check: every replica's merged
// delivery sequence (recorded via delivery observers) must be identical
// within its partition, and replica state digests must converge.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/elastic.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace mrp;

constexpr std::uint64_t kRecords = 8192;
constexpr std::uint32_t kThreads = 100;
constexpr ProcessId kClientPid = 900;
constexpr TimeNs kTick = 250 * kMillisecond;
constexpr int kSplitTick = 16;   // split at t = 4 s
constexpr int kTotalTicks = 56;  // run until t = 14 s

}  // namespace

int main() {
  sim::Env env(97);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  // One partition owning the whole key space (RangePartitioner, so it can
  // shed a sub-range online), replicas CPU-bound like the fig4 cluster.
  mrpstore::StoreOptions so;
  so.partitions = 1;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.partitioner = mrpstore::RangePartitioner({}).encode();
  so.replica_options.batch_bytes = 32 * 1024;
  so.replica_options.batch_delay = kMillisecond;
  so.replica_options.checkpoint.interval = 2 * kSecond;
  so.replica_options.trim.interval = 4 * kSecond;
  auto dep = build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) env.set_cpu(r, bench::server_cpu());
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::string key = workload::YcsbGenerator::key_of(i);
    for (ProcessId r : dep.replicas[0]) {
      auto* rep = env.process_as<smr::ReplicaNode>(r);
      dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine())
          .preload(key, Bytes(1024, 1));
    }
  }

  // Delivery observers: record every replica's merged sequence so the bench
  // can assert zero delivery-order divergence at the end.
  std::map<ProcessId, std::vector<std::pair<GroupId, InstanceId>>> seqs;
  auto observe = [&env, &seqs](ProcessId pid) {
    env.process_as<smr::ReplicaNode>(pid)->set_delivery_observer(
        [&seqs, pid](GroupId g, InstanceId i, const Payload&) {
          seqs[pid].emplace_back(g, i);
        });
  };
  for (ProcessId r : dep.all_replicas()) observe(r);

  // YCSB-A (50/50 read/update, scrambled zipfian) through a client whose
  // routing starts at schema v1 and self-heals via kStaleRouting replies.
  auto store = std::make_shared<mrpstore::StoreClient>(dep);
  auto gen = std::make_shared<workload::YcsbGenerator>(
      workload::YcsbSpec::workload('A'), kRecords, 4242);
  auto* client = env.spawn<smr::ClientNode>(
      kClientPid, smr::ClientNode::Options{kThreads, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [store, gen](std::uint32_t) -> std::optional<smr::Request> {
            const workload::YcsbOp op = gen->next();
            if (op.type == workload::YcsbOpType::kUpdate) {
              return store->update(op.key, op.value);
            }
            return store->read(op.key);
          }),
      smr::ClientNode::DoneFn(nullptr));
  client->set_reroute(store->reroute_fn(&registry));

  const std::vector<ProcessId> new_replicas = {300, 301, 302};
  bench::print_header(
      "Figure 9: elastic scale-out — throughput timeline while a ring is "
      "added at t=4s (YCSB-A, 100 threads)");
  std::printf("%8s %14s %10s\n", "t_s", "ops_per_sec", "phase");

  bench::BenchReporter rep("fig9_elastic");
  rep.config("client_threads", kThreads)
      .config("records", static_cast<double>(kRecords))
      .config("initial_partitions", 1)
      .config("replication_factor", 3)
      .config("value_bytes", 1024)
      .config("split_at_seconds", to_seconds(kSplitTick * kTick))
      .config("workload", "A")
      .config("network", "cluster");

  std::vector<double> timeline;
  std::uint64_t last_completed = 0;
  for (int tick = 1; tick <= kTotalTicks; ++tick) {
    env.sim().run_for(kTick);
    const std::uint64_t done = client->completed();
    const double ops =
        static_cast<double>(done - last_completed) / to_seconds(kTick);
    last_completed = done;
    timeline.push_back(ops);
    const char* phase = tick <= kSplitTick ? "one-ring" : "two-rings";
    std::printf("%8.2f %14.0f %10s\n", to_seconds(tick * kTick), ops, phase);
    rep.row("t" + std::to_string(tick))
        .tag("phase", phase)
        .metric("t_s", to_seconds(tick * kTick))
        .metric("throughput_ops", ops);

    if (tick == kSplitTick) {
      // Split the key space at its median: the new ring (replicas 300-302)
      // takes over the upper half via ordered cutover + state transfer.
      mrpstore::SplitSpec spec;
      spec.source_group = dep.partition_groups[0];
      spec.split_key = workload::YcsbGenerator::key_of(kRecords / 2);
      spec.new_group = 10;
      spec.new_replicas = new_replicas;
      spec.ring_params = so.ring_params;
      spec.replica_options = so.replica_options;
      spec.admin_pid = 890;
      split_partition(env, registry, dep, spec);
      for (ProcessId r : new_replicas) {
        env.set_cpu(r, bench::server_cpu());
        observe(r);
      }
    }
  }
  client->stop();
  env.sim().run_for(2 * kSecond);  // drain so replicas converge

  // Pre/post averages: skip warmup and the cutover transient.
  auto avg = [&timeline](int lo, int hi) {
    double s = 0;
    for (int i = lo; i < hi; ++i) s += timeline[static_cast<std::size_t>(i)];
    return s / (hi - lo);
  };
  const double before = avg(4, kSplitTick);                 // 1 s .. 4 s
  const double after = avg(kSplitTick + 16, kTotalTicks);   // 8 s .. 14 s

  // Zero-divergence checks: identical merged sequences within each
  // partition, converged state digests, completed bootstrap.
  bool ok = true;
  auto check_group = [&](const std::vector<ProcessId>& members,
                         const char* label) {
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (seqs[members[i]] != seqs[members[0]]) {
        std::printf("FAIL: %s replica %d delivery order diverged\n", label,
                    members[i]);
        ok = false;
      }
      if (dep.replica_digest(env, members[i]) !=
          dep.replica_digest(env, members[0])) {
        std::printf("FAIL: %s replica %d state digest diverged\n", label,
                    members[i]);
        ok = false;
      }
    }
  };
  check_group(dep.replicas[0], "partition0");
  check_group(new_replicas, "partition1(new)");
  for (ProcessId r : new_replicas) {
    if (env.process_as<mrpstore::StoreReplicaNode>(r)->bootstrapping()) {
      std::printf("FAIL: replica %d never finished its handoff\n", r);
      ok = false;
    }
  }
  if (client->reroutes() == 0) {
    std::printf("FAIL: stale client never exercised the reroute path\n");
    ok = false;
  }
  if (after <= before * 1.15) {
    std::printf("FAIL: throughput did not scale (%.0f -> %.0f ops/s)\n",
                before, after);
    ok = false;
  }

  std::printf("\npre-split  avg: %10.0f ops/s\n", before);
  std::printf("post-split avg: %10.0f ops/s (%.2fx)\n", after,
              after / before);
  std::printf("client reroutes: %llu, schema version: %llu\n",
              static_cast<unsigned long long>(client->reroutes()),
              static_cast<unsigned long long>(dep.schema_version));
  std::printf("%s\n", ok ? "PASS: throughput scaled with the added ring and "
                           "no replica diverged"
                         : "FAIL");

  auto& summary =
      rep.row("summary")
          .metric("throughput_pre_split_ops", before)
          .metric("throughput_post_split_ops", after)
          .metric("speedup", after / before)
          .metric("reroutes", static_cast<double>(client->reroutes()))
          .metric("schema_version", static_cast<double>(dep.schema_version))
          .metric("divergence_free", ok ? 1 : 0);
  bench::add_flow_metrics(
      summary, bench::collect_flow(env, dep.all_replicas(), dep.partition_groups))
      .latency(client->latency_histogram());
  return rep.write() && ok ? 0 : 1;
}
