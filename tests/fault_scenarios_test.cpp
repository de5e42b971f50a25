// Chaos scenarios: the deterministic fault-injection subsystem (src/fault/)
// driving MRP-Store and dLog deployments through crashes, partitions,
// network chaos and disk faults.
//
// Every scenario is executed TWICE with the same seed and must produce the
// byte-identical injector trace and the identical combined state digest —
// that is the subsystem's reproducibility contract (a failing seed can be
// replayed exactly). Each run also checks safety (monotone, merge-identical
// delivery sequences; converged replica digests; no acked write lost) and
// liveness (client progress resumes after the last fault).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "coord/registry.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/probes.hpp"
#include "fault/runner.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/elastic.hpp"
#include "mrpstore/store.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp {
namespace {

// ---------------------------------------------------------------------------
// Store-scenario scaffolding

struct StoreScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t completions = 0;
};

/// Store options shared by the chaos scenarios: fast failure detection and
/// recovery so faults play out within a few simulated seconds.
mrpstore::StoreOptions chaos_store_options() {
  mrpstore::StoreOptions so;
  so.partitions = 1;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.ring_params.gap_timeout = 20 * kMillisecond;
  so.replica_options.checkpoint.interval = 1500 * kMillisecond;
  so.replica_options.trim.interval = 3 * kSecond;
  return so;
}

/// Spawns a closed-loop client inserting unique keys and recording which
/// inserts were acknowledged; the returned set backs the no-lost-acked-write
/// invariant.
smr::ClientNode* spawn_insert_client(
    sim::Env& env, const mrpstore::StoreClient& helper,
    std::shared_ptr<std::vector<std::string>> acked, const std::string& prefix,
    std::uint32_t workers = 4) {
  smr::ClientNode::Options copts;
  copts.workers = workers;
  copts.retry_timeout = kSecond;
  return env.spawn<smr::ClientNode>(
      990, copts,
      smr::ClientNode::NextFn([&helper, prefix, n = 0](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        return helper.insert(prefix + std::to_string(n++), to_bytes("v"));
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        const auto op = mrpstore::decode_op(c.op);
        for (const auto& [tag, reply] : c.results) {
          if (mrpstore::decode_result(reply).status == mrpstore::Status::kOk) {
            acked->push_back(op.key);
            break;
          }
        }
      }));
}

/// No acked insert may be missing from any alive replica of its partition.
void add_acked_invariant(fault::ScenarioRunner& runner, sim::Env& env,
                         const mrpstore::StoreDeployment& dep,
                         std::shared_ptr<std::vector<std::string>> acked) {
  runner.add_invariant(
      "acked-writes-durable", [&env, &dep, acked]() -> std::optional<std::string> {
        for (const std::string& key : *acked) {
          const auto p = static_cast<std::size_t>(
              dep.partitioner->partition_for_key(key));
          for (ProcessId r : dep.replicas[p]) {
            if (!env.is_alive(r)) continue;
            if (!dep.replica_get(env, r, key)) {
              return "acked key '" + key + "' lost at replica " +
                     std::to_string(r);
            }
          }
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Scenario 1: coordinator crash mid-instance, later restart + recovery.

StoreScenarioResult scenario_coordinator_crash(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  auto dep = mrpstore::build_store(env, registry, chaos_store_options());
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "cc");

  // The initial coordinator is the first configured acceptor.
  const ProcessId coordinator = dep.replicas[0][0];
  fault::FaultPlan plan;
  plan.crash_restart(3 * kSecond, coordinator, 5 * kSecond);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(14 * kSecond, 6 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, CoordinatorCrashMidInstance) {
  auto r1 = scenario_coordinator_crash(7001);
  auto r2 = scenario_coordinator_crash(7001);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace) << "fault trace not reproducible";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest)
      << "same seed diverged";
  EXPECT_GT(r1.completions, 100u);
  // The crash and the restart both fired.
  EXPECT_EQ(r1.report.trace.size(), 2u);
}

// ---------------------------------------------------------------------------
// Scenario 2: ring partition (one replica isolated) and heal.

StoreScenarioResult scenario_partition_heal(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  auto dep = mrpstore::build_store(env, registry, chaos_store_options());
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "ph");

  // Isolating a ring member cuts the ring pipeline (the member stays in the
  // view — the registry detects crashes, not partitions), so delivery stalls
  // until the heal; the invariants require it to *resume* afterwards.
  fault::FaultPlan plan;
  plan.partition_window(3 * kSecond, 6 * kSecond, dep.replicas[0][1]);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(13 * kSecond, 6 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, RingPartitionAndHeal) {
  auto r1 = scenario_partition_heal(7002);
  auto r2 = scenario_partition_heal(7002);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace);
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  EXPECT_GT(r1.completions, 100u);
}

// ---------------------------------------------------------------------------
// Scenario 3: lagging group — traffic on one partition ring only; the idle
// global ring must be kept live by rate-leveling skips (the
// DeterministicMerger skip path), with a chaos window jittering latencies.

StoreScenarioResult scenario_lagging_group(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.partitions = 2;
  so.global_ring = true;
  so.ring_params.lambda = 2000;
  so.ring_params.skip_interval = 5 * kMillisecond;
  so.global_params = so.ring_params;
  auto dep = mrpstore::build_store(env, registry, so);

  // Address partition 0 directly (keys never hit partition 1 or the global
  // ring, which therefore only advances through skips).
  auto acked = std::make_shared<std::vector<std::string>>();
  smr::ClientNode::Options copts;
  copts.workers = 4;
  copts.retry_timeout = kSecond;
  auto* client = env.spawn<smr::ClientNode>(
      990, copts,
      smr::ClientNode::NextFn([&dep, n = 0](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        mrpstore::Op op;
        op.type = mrpstore::OpType::kInsert;
        op.key = "lag" + std::to_string(n++);
        op.value = to_bytes("v");
        return smr::Request::single(dep.partition_groups[0], dep.replicas[0],
                                    mrpstore::encode_op(op));
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        for (const auto& [tag, reply] : c.results) {
          if (mrpstore::decode_result(reply).status == mrpstore::Status::kOk) {
            acked->push_back(mrpstore::decode_op(c.op).key);
            break;
          }
        }
      }));

  fault::FaultPlan plan;
  plan.chaos_window(3 * kSecond, 6 * kSecond,
                    sim::NetFault{0.0, 0.0, 500 * kMicrosecond});

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  runner.add_invariant("skip-path-exercised",
                       [&env, &dep]() -> std::optional<std::string> {
                         auto* rep = env.process_as<smr::ReplicaNode>(
                             dep.replicas[0][0]);
                         if (rep->merger()->skipped_instances() == 0) {
                           return "idle rings produced no merger skips";
                         }
                         return std::nullopt;
                       });
  runner.add_invariant(
      "acked-writes-durable", [&env, &dep, acked]() -> std::optional<std::string> {
        for (const std::string& key : *acked) {
          for (ProcessId r : dep.replicas[0]) {
            if (!env.is_alive(r)) continue;
            if (!dep.replica_get(env, r, key)) {
              return "acked key '" + key + "' lost at replica " +
                     std::to_string(r);
            }
          }
        }
        return std::nullopt;
      });
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(12 * kSecond, 5 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, LaggingGroupKeptLiveBySkips) {
  auto r1 = scenario_lagging_group(7003);
  auto r2 = scenario_lagging_group(7003);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace);
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  EXPECT_GT(r1.completions, 100u);
}

// ---------------------------------------------------------------------------
// Scenario 4: disk stall while a replica checkpoints (checkpoints are
// written synchronously — delivery pauses, then must resume), plus a
// temporarily degraded acceptor-log device.

StoreScenarioResult scenario_disk_stall(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.ring_params.write_mode = storage::WriteMode::Async;
  so.replica_options.checkpoint.interval = 1200 * kMillisecond;
  so.replica_options.checkpoint.disk_index = 1;  // snapshots on own device
  auto dep = mrpstore::build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) {
    env.set_disk_params(r, 0, sim::DiskParams::ssd());
    env.set_disk_params(r, 1, sim::DiskParams::ssd());
  }
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "ds");

  const ProcessId victim = dep.replicas[0][1];
  fault::FaultPlan plan;
  // Stall the checkpoint device across a checkpoint boundary, and make the
  // acceptor-log device crawl for a while.
  plan.disk_stall(3500 * kMillisecond, victim, 1, 2500 * kMillisecond);
  plan.disk_slow(4 * kSecond, victim, 0, 8.0);
  plan.disk_slow(7 * kSecond, victim, 0, 1.0);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  runner.add_invariant("checkpoints-taken",
                       [&env, &dep]() -> std::optional<std::string> {
                         std::uint64_t taken = 0;
                         for (ProcessId r : dep.all_replicas()) {
                           if (!env.is_alive(r)) continue;
                           taken += env.process_as<smr::ReplicaNode>(r)
                                        ->checkpointer()
                                        .checkpoints_taken();
                         }
                         if (taken == 0) return "no checkpoint completed";
                         return std::nullopt;
                       });
  runner.add_invariant("stall-injected",
                       [&env, victim]() -> std::optional<std::string> {
                         if (env.disk(victim, 1).stalls() == 0) {
                           return "checkpoint disk never stalled";
                         }
                         return std::nullopt;
                       });
  add_acked_invariant(runner, env, dep, acked);
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(13 * kSecond, 6 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, DiskStallDuringCheckpoint) {
  auto r1 = scenario_disk_stall(7004);
  auto r2 = scenario_disk_stall(7004);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace);
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  EXPECT_GT(r1.completions, 100u);
}

// ---------------------------------------------------------------------------
// Scenario 5: crash during recovery replay — the replica dies again while
// it is installing checkpoints / replaying retransmitted instances, then
// recovers for good.

StoreScenarioResult scenario_crash_during_recovery(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.replica_options.checkpoint.interval = kSecond;
  so.replica_options.trim.interval = 2 * kSecond;
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "cr");

  const ProcessId victim = dep.replicas[0][2];
  fault::FaultPlan plan;
  plan.crash(3 * kSecond, victim);
  plan.restart(7 * kSecond, victim);
  // 300 ms after restarting, the replica is mid-recovery (fetching remote
  // checkpoints / replaying); kill it again.
  plan.crash(7300 * kMillisecond, victim);
  plan.restart(9500 * kMillisecond, victim);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(16 * kSecond, 6 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, CrashDuringRecoveryReplay) {
  auto r1 = scenario_crash_during_recovery(7005);
  auto r2 = scenario_crash_during_recovery(7005);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace);
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  ASSERT_EQ(r1.report.trace.size(), 4u);
  EXPECT_GT(r1.completions, 100u);
}

// ---------------------------------------------------------------------------
// Scenario 6: random soak with a fixed seed — crashes, isolation windows
// and chaos windows drawn from the seeded Rng; the whole schedule (and the
// final state) must replay identically.

StoreScenarioResult scenario_random_soak(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.partitions = 2;
  so.replica_options.checkpoint.interval = kSecond;
  so.replica_options.trim.interval = 2 * kSecond;
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "soak");

  fault::FaultPlan::SoakOptions opts;
  opts.duration = 14 * kSecond;
  opts.victims = dep.all_replicas();
  opts.mean_gap = 1200 * kMillisecond;
  opts.chaos = sim::NetFault{0.01, 0.01, 500 * kMicrosecond};
  Rng plan_rng(seed * 2654435761ULL + 1);
  fault::FaultPlan plan = fault::FaultPlan::random_soak(plan_rng, opts);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);
  runner.set_quiesce([client] { client->stop(); });

  StoreScenarioResult out;
  out.report = runner.run(14 * kSecond, 7 * kSecond);
  out.completions = client->completed();
  return out;
}

TEST(FaultScenarios, RandomSoakWithFixedSeedIsReproducible) {
  auto r1 = scenario_random_soak(7006);
  auto r2 = scenario_random_soak(7006);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace)
      << "soak schedule not reproducible from its seed";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  EXPECT_FALSE(r1.report.trace.empty()) << "soak drew no faults";
  EXPECT_GT(r1.completions, 100u);

  // A different seed must draw a different schedule (sanity check that the
  // generator actually uses the Rng).
  auto r3 = scenario_random_soak(7007);
  EXPECT_NE(r1.report.trace, r3.report.trace);
}

// ---------------------------------------------------------------------------
// Scenario 7: dLog under network chaos (drop + duplicate + reordering
// delay) plus a server crash — acked appends survive at every server.

struct DlogScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t completions = 0;
};

DlogScenarioResult scenario_dlog_chaos(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  dlog::DLogOptions opts;
  opts.num_logs = 2;
  opts.ring_params.gap_timeout = 20 * kMillisecond;
  // Rate leveling keeps the three-ring merge live while individual rings
  // are idle (and its skips get exercised under chaos too).
  opts.ring_params.lambda = 3000;
  opts.ring_params.skip_interval = 5 * kMillisecond;
  opts.common_params = opts.ring_params;
  opts.replica_options.checkpoint.interval = kSecond;
  opts.replica_options.trim.interval = 2 * kSecond;
  auto dep = dlog::build_dlog(env, registry, opts);
  dlog::DLogClient client(dep);

  // Highest acked position per log (from append/multi-append replies).
  auto acked = std::make_shared<std::map<dlog::LogId, dlog::Position>>();
  // dLog's flow-control client options (window + jittered backoff).
  smr::ClientNode::Options copts = dlog::DLogClient::client_options(4, 4, kSecond);
  auto* cnode = env.spawn<smr::ClientNode>(
      990, copts,
      smr::ClientNode::NextFn([&client, n = 0](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        const int pick = n++ % 5;
        if (pick == 4) return client.multi_append({0, 1}, Bytes(64, 0x5b));
        return client.append(static_cast<dlog::LogId>(pick % 2),
                             Bytes(64, 0x5a));
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        for (const auto& [tag, reply] : c.results) {
          const auto result = dlog::decode_result(reply);
          if (result.status != dlog::Status::kOk) continue;
          for (const auto& [log, pos] : result.positions) {
            auto it = acked->find(log);
            if (it == acked->end() || pos > it->second) (*acked)[log] = pos;
          }
        }
      }));

  fault::FaultPlan plan;
  plan.chaos_window(2 * kSecond, 7 * kSecond,
                    sim::NetFault{0.03, 0.03, kMillisecond});
  plan.crash_restart(8 * kSecond, dep.servers[2], 3 * kSecond);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_dlog(runner, env, dep);
  runner.watch_progress("client", [cnode] { return cnode->completed(); });
  runner.add_invariant(
      "acked-appends-durable",
      [&env, &dep, acked]() -> std::optional<std::string> {
        for (const auto& [log, pos] : *acked) {
          for (ProcessId s : dep.servers) {
            if (!env.is_alive(s)) continue;
            if (dep.server_next_position(env, s, log) <= pos) {
              return "acked append " + std::to_string(pos) + " of log " +
                     std::to_string(log) + " missing at server " +
                     std::to_string(s);
            }
          }
        }
        return std::nullopt;
      });
  runner.set_quiesce([cnode] { cnode->stop(); });

  DlogScenarioResult out;
  out.report = runner.run(14 * kSecond, 6 * kSecond);
  out.completions = cnode->completed();
  return out;
}

TEST(FaultScenarios, DlogUnderDropDuplicateReorderChaos) {
  auto r1 = scenario_dlog_chaos(7008);
  auto r2 = scenario_dlog_chaos(7008);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace);
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest);
  EXPECT_GT(r1.completions, 100u);
}

// ---------------------------------------------------------------------------
// Scenario 8: online scale-out under network chaos — a partition split
// (subscription change + live state transfer + schema v2 cutover) executes
// inside a NetFault drop/duplicate window. The whole cutover must be
// deterministic: two runs with the same seed produce bit-identical traces
// and state digests, and the new partition's replicas deliver identical
// merged sequences.

struct ElasticScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t completions = 0;
  std::uint64_t reroutes = 0;
};

ElasticScenarioResult scenario_elastic_split(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.partitioner = mrpstore::RangePartitioner({}).encode();  // one partition
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();
  auto* client = spawn_insert_client(env, helper, acked, "el");
  // The insert client keeps its (soon stale) schema until kStaleRouting
  // replies trigger the refresh-and-retry loop.
  client->set_reroute(helper.reroute_fn(&registry));

  const std::vector<ProcessId> new_replicas = {400, 401, 402};

  fault::FaultPlan plan;
  plan.chaos_window(2 * kSecond, 8 * kSecond,
                    sim::NetFault{0.03, 0.03, 500 * kMicrosecond});

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_group("partition-new", new_replicas,
                     [&env, &dep](ProcessId pid) {
                       return dep.replica_digest(env, pid);
                     });
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);

  // Mid-chaos, split the single partition at "el5": keys >= "el5" move to a
  // new partition (ring 10, replicas 400-402) bootstrapped by state
  // transfer, while inserts keep flowing.
  env.sim().schedule_at(4 * kSecond, [&env, &registry, &dep, &runner,
                                     new_replicas] {
    mrpstore::SplitSpec spec;
    spec.source_group = dep.partition_groups[0];
    spec.split_key = "el5";
    spec.new_group = 10;
    spec.new_replicas = new_replicas;
    spec.ring_params.gap_timeout = 20 * kMillisecond;
    spec.replica_options.checkpoint.interval = 1500 * kMillisecond;
    spec.replica_options.trim.interval = 3 * kSecond;
    spec.admin_pid = 890;
    mrpstore::split_partition(env, registry, dep, spec);
    for (ProcessId pid : new_replicas) runner.attach_now(pid);
  });

  runner.add_invariant(
      "split-completed", [&env, &registry, &dep,
                          new_replicas]() -> std::optional<std::string> {
        if (registry.schema(mrpstore::kStoreSchemaKey).version < 2) {
          return "registry never saw schema v2";
        }
        for (ProcessId pid : new_replicas) {
          auto* rep = env.process_as<mrpstore::StoreReplicaNode>(pid);
          if (rep->bootstrapping()) {
            return "replica " + std::to_string(pid) +
                   " still awaits its handoff";
          }
          const auto& kv = dynamic_cast<const mrpstore::KvStateMachine&>(
              rep->state_machine());
          if (kv.schema().version < 2) {
            return "replica " + std::to_string(pid) + " still on schema v1";
          }
        }
        if (registry.subscribers(10).size() != new_replicas.size()) {
          return "new ring's subscriptions not registered";
        }
        return std::nullopt;
      });
  runner.set_quiesce([client] { client->stop(); });

  ElasticScenarioResult out;
  out.report = runner.run(14 * kSecond, 7 * kSecond);
  out.completions = client->completed();
  out.reroutes = client->reroutes();
  return out;
}

TEST(FaultScenarios, ElasticSplitUnderChaosIsDeterministic) {
  auto r1 = scenario_elastic_split(7009);
  auto r2 = scenario_elastic_split(7009);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace)
      << "chaos schedule not reproducible";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest)
      << "same-seed scale-out diverged (cutover not deterministic)";
  EXPECT_GT(r1.completions, 100u);
  // The stale client really exercised the refresh-and-retry loop, and both
  // runs rerouted identically.
  EXPECT_GE(r1.reroutes, 1u);
  EXPECT_EQ(r1.reroutes, r2.reroutes);
}

// ---------------------------------------------------------------------------
// Scenario 9: sustained overload against tight flow-control caps while one
// acceptor's log device crawls (a slow ring). The bounded pipeline must
// shed at every layer — replica admission window (MsgClientBusy), the
// coordinator's bounded pending queue (MsgBusy) — without any queue ever
// exceeding its cap, keep every acked write durable, resume full service
// once the disk recovers, and replay bit-identically.

struct OverloadScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t completions = 0;
  std::uint64_t busy_pushbacks = 0;
  std::uint64_t sheds = 0;
};

OverloadScenarioResult scenario_overload_slow_ring(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  // Tight bounded pipeline: a fraction of what 48 closed-loop workers offer.
  // Synchronous acceptor logs on SSDs make the ring disk-bound, so the
  // disk_slow fault genuinely slows the ring; checkpoints go to their own
  // device so the pipeline fault cannot wedge the checkpointer.
  so.ring_params.write_mode = storage::WriteMode::Sync;
  so.ring_params.window = 32;
  so.ring_params.min_window = 4;
  so.ring_params.max_pending = 64;
  so.ring_params.busy_retry_hint = 2 * kMillisecond;
  so.replica_options.admission_commands = 24;
  so.replica_options.admission_bytes = 32 * 1024;
  so.replica_options.busy_retry_hint = 2 * kMillisecond;
  so.replica_options.checkpoint.disk_index = 1;
  auto dep = mrpstore::build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) {
    env.set_cpu(r, sim::CpuParams{from_micros(5.0), 1.2});
    env.set_disk_params(r, 0, sim::DiskParams::ssd());
    env.set_disk_params(r, 1, sim::DiskParams::ssd());
  }
  mrpstore::StoreClient helper(dep);
  auto acked = std::make_shared<std::vector<std::string>>();

  // The store's own flow-control client options (window + jittered backoff).
  smr::ClientNode::Options copts =
      mrpstore::StoreClient::client_options(48, 36, 500 * kMillisecond);
  auto* client = env.spawn<smr::ClientNode>(
      990, copts,
      smr::ClientNode::NextFn([&helper, n = 0](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        return helper.insert("ov" + std::to_string(n++), to_bytes("v"));
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        const auto op = mrpstore::decode_op(c.op);
        for (const auto& [tag, reply] : c.results) {
          if (mrpstore::decode_result(reply).status == mrpstore::Status::kOk) {
            acked->push_back(op.key);
            break;
          }
        }
      }));

  // Slow ring: the second acceptor's log device degrades 25x mid-run, then
  // recovers — the adaptive inflight window must shrink instead of pinning
  // undecided instances, and service must come back afterwards.
  const ProcessId slow = dep.replicas[0][1];
  fault::FaultPlan plan;
  plan.disk_slow(3 * kSecond, slow, 0, 25.0);
  plan.disk_slow(8 * kSecond, slow, 0, 1.0);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });
  add_acked_invariant(runner, env, dep, acked);
  runner.add_invariant(
      "queues-bounded", [&env, &dep, &so]() -> std::optional<std::string> {
        for (ProcessId r : dep.all_replicas()) {
          if (!env.is_alive(r)) continue;
          auto* rep = env.process_as<smr::ReplicaNode>(r);
          for (GroupId g : dep.partition_groups) {
            const auto adm = rep->admission_stats(g);
            if (adm.commands_hwm > so.replica_options.admission_commands) {
              return "replica " + std::to_string(r) +
                     " admission hwm " + std::to_string(adm.commands_hwm) +
                     " exceeds cap";
            }
            if (auto* h = rep->handler(g)) {
              const auto flow = h->flow_stats();
              if (flow.pending_hwm > so.ring_params.max_pending) {
                return "ring " + std::to_string(g) + " pending hwm " +
                       std::to_string(flow.pending_hwm) + " exceeds cap";
              }
              if (flow.inflight_hwm > so.ring_params.window) {
                return "ring " + std::to_string(g) + " inflight hwm " +
                       std::to_string(flow.inflight_hwm) + " exceeds window";
              }
            }
          }
        }
        return std::nullopt;
      });
  runner.add_invariant(
      "pushback-exercised",
      [&env, &dep, client]() -> std::optional<std::string> {
        std::uint64_t sheds = 0;
        for (ProcessId r : dep.all_replicas()) {
          if (!env.is_alive(r)) continue;
          auto* rep = env.process_as<smr::ReplicaNode>(r);
          for (GroupId g : dep.partition_groups) {
            sheds += rep->admission_stats(g).shed;
          }
        }
        if (sheds == 0) return "no admission-window shed happened";
        if (client->busy_pushbacks() == 0) return "client saw no pushback";
        return std::nullopt;
      });
  runner.set_quiesce([client] { client->stop(); });

  OverloadScenarioResult out;
  out.report = runner.run(12 * kSecond, 8 * kSecond);
  out.completions = client->completed();
  out.busy_pushbacks = client->busy_pushbacks();
  for (ProcessId r : dep.all_replicas()) {
    if (!env.is_alive(r)) continue;
    auto* rep = env.process_as<smr::ReplicaNode>(r);
    for (GroupId g : dep.partition_groups) {
      out.sheds += rep->admission_stats(g).shed;
    }
  }
  return out;
}

TEST(FaultScenarios, OverloadWithSlowRingShedsBoundedAndReplays) {
  auto r1 = scenario_overload_slow_ring(7010);
  auto r2 = scenario_overload_slow_ring(7010);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace)
      << "overload schedule not reproducible";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest)
      << "same-seed overload run diverged";
  EXPECT_GT(r1.completions, 100u);
  // The shed/backoff machinery itself must replay identically too.
  EXPECT_EQ(r1.completions, r2.completions);
  EXPECT_EQ(r1.busy_pushbacks, r2.busy_pushbacks);
  EXPECT_EQ(r1.sheds, r2.sheds);
  EXPECT_GT(r1.busy_pushbacks, 0u);
}

// ---------------------------------------------------------------------------
// Scenario 10: cross-partition atomic transfers under crash+recover plus
// network chaos (drop + duplicate + reordering delay). Transfers are
// multi-group commands — one copy per owning partition's ring, gathered and
// executed exactly once per replica at its merged commit position — so the
// safety property is monetary: no transfer half lost, none applied twice.
// Accounts open at 0 and transfers overdraft freely, so every replica pair
// must agree that the total balance across both partitions is exactly 0 once
// the run drains; a lost debit or duplicated credit shifts the sum by the
// transfer amount and is caught. The crashed replica recovers mid-stream
// (its checkpoint may hold a half-gathered multi-group command), and the
// whole run must replay bit-identically from its seed.

struct TransferScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t completions = 0;
};

TransferScenarioResult scenario_crosspartition_transfers(std::uint64_t seed) {
  // Accounts a0..a7 live below the "m" split (partition 0), z0..z7 above it
  // (partition 1).
  constexpr int kAccounts = 8;
  const auto acct_a = [](int i) { return "a" + std::to_string(i); };
  const auto acct_z = [](int i) { return "z" + std::to_string(i); };

  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);
  mrpstore::StoreOptions so = chaos_store_options();
  so.partitions = 2;
  so.partitioner = mrpstore::RangePartitioner({"m"}).encode();
  auto dep = mrpstore::build_store(env, registry, so);
  mrpstore::StoreClient helper(dep);

  // Deterministic closed-loop mix: half the transfers cross the partition
  // boundary in either direction (atomic multi-group commands), the rest
  // stay inside one partition (ordinary single-group commands) — the blend
  // that interleaves gathering commands with overtaking single-group ones.
  auto acked = std::make_shared<std::uint64_t>(0);
  smr::ClientNode::Options copts;
  copts.workers = 4;
  copts.retry_timeout = kSecond;
  auto* client = env.spawn<smr::ClientNode>(
      990, copts,
      smr::ClientNode::NextFn([&helper, acct_a, acct_z, n = 0](std::uint32_t)
                                  mutable -> std::optional<smr::Request> {
        const int k = n++;
        const std::string a = acct_a(k % kAccounts);
        const std::string z = acct_z((k / kAccounts) % kAccounts);
        switch (k % 4) {
          case 0:
            return helper.transfer(a, z, 3);  // cross-partition, a -> z
          case 1:
            return helper.transfer(z, a, 2);  // cross-partition, z -> a
          case 2:
            return helper.transfer(a, acct_a((k + 1) % kAccounts), 1);
          default:
            return helper.transfer(z, acct_z((k + 1) % kAccounts), 1);
        }
      }),
      smr::ClientNode::DoneFn([acked](const smr::Completion& c) {
        if (mrpstore::StoreClient::merge_multi(c.results).status ==
            mrpstore::Status::kOk) {
          ++*acked;
        }
      }));

  fault::FaultPlan plan;
  plan.chaos_window(2 * kSecond, 8 * kSecond,
                    sim::NetFault{0.03, 0.03, 500 * kMicrosecond});
  plan.crash_restart(3 * kSecond, dep.replicas[0][1], 3 * kSecond);

  fault::ScenarioRunner runner(env, std::move(plan));
  fault::watch_store(runner, env, dep);
  runner.watch_progress("client", [client] { return client->completed(); });

  // Conservation across partitions: every (partition-0 replica,
  // partition-1 replica) pair must account for exactly the initial capital
  // of 0. Checked after the drain — mid-run the two halves of a transfer
  // commit at different times, so the sum is only meaningful at rest.
  runner.add_invariant(
      "balance-conserved",
      [&env, &dep, acct_a, acct_z, kAccounts]() -> std::optional<std::string> {
        const auto balance = [&](ProcessId r, const std::string& key) {
          const auto v = dep.replica_get(env, r, key);
          return v ? std::stoll(mrp::to_string(*v)) : 0LL;
        };
        const auto partition_sum = [&](std::size_t p, ProcessId r) {
          long long sum = 0;
          for (int i = 0; i < kAccounts; ++i) {
            sum += balance(r, p == 0 ? acct_a(i) : acct_z(i));
          }
          return sum;
        };
        std::vector<std::vector<long long>> sums(2);
        for (std::size_t p = 0; p < 2; ++p) {
          for (ProcessId r : dep.replicas[p]) {
            if (env.is_alive(r)) sums[p].push_back(partition_sum(p, r));
          }
          if (sums[p].empty()) return "no alive replica in partition";
        }
        for (long long s0 : sums[0]) {
          for (long long s1 : sums[1]) {
            if (s0 + s1 != 0) {
              return "total balance " + std::to_string(s0 + s1) +
                     " != 0 (partition sums " + std::to_string(s0) + " / " +
                     std::to_string(s1) + "): a transfer half was lost or " +
                     "applied twice";
            }
          }
        }
        return std::nullopt;
      });
  runner.add_invariant("cross-partition-acked",
                       [acked]() -> std::optional<std::string> {
                         if (*acked == 0) return "no transfer was ever acked";
                         return std::nullopt;
                       });
  runner.set_quiesce([client] { client->stop(); });

  TransferScenarioResult out;
  out.report = runner.run(14 * kSecond, 6 * kSecond);
  out.completions = *acked;
  return out;
}

TEST(FaultScenarios, CrossPartitionTransfersUnderCrashAndChaos) {
  auto r1 = scenario_crosspartition_transfers(7011);
  auto r2 = scenario_crosspartition_transfers(7011);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace)
      << "chaos schedule not reproducible";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest)
      << "same-seed transfer run diverged";
  // The crash and the restart both fired, inside the chaos window.
  EXPECT_EQ(r1.report.trace.size(), 4u);
  EXPECT_GT(r1.completions, 100u);
  EXPECT_EQ(r1.completions, r2.completions);
}

// ---------------------------------------------------------------------------
// Scenario 11: permanent acceptor loss with automatic self-healing. One
// acceptor of a three-acceptor ring is killed for good (no restart) while a
// standby rides along as a learner. The registry's failure detector must
// suspect the dead acceptor past the grace period, draft the standby, sync
// it from the union of the surviving acceptors' logs and activate it — all
// while the ring keeps deciding on the surviving majority. The heal itself
// must be deterministic: two runs with the same seed produce bit-identical
// traces and state digests.

class HealProbeNode final : public multiring::MultiRingNode {
 public:
  using Deliveries = std::map<ProcessId, std::vector<std::string>>;

  HealProbeNode(runtime::Runtime& rt, coord::Registry* reg,
                multiring::NodeConfig cfg, std::shared_ptr<Deliveries> log)
      : MultiRingNode(rt, reg, std::move(cfg)) {
    set_deliver([this, log](GroupId, InstanceId, const Payload& p) {
      (*log)[this->id()].push_back(p.as_string());
    });
  }
};

struct HealScenarioResult {
  fault::ScenarioReport report;
  std::uint64_t heal_count = 0;
  std::uint64_t deliveries_at_survivor = 0;
};

HealScenarioResult scenario_acceptor_selfheal(std::uint64_t seed) {
  sim::Env env(seed);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = 0;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  cfg.standbys = {4};  // learner from birth: already caught up on delivery
  cfg.fd.auto_heal = true;
  cfg.fd.suspect_grace = 400 * kMillisecond;
  cfg.fd.jitter = 0.25;  // jittered suspicion must still replay bit-identically
  registry.create_ring(cfg);

  auto log = std::make_shared<HealProbeNode::Deliveries>();
  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{0, {}, true});
  for (ProcessId i : cfg.order) {
    env.spawn<HealProbeNode>(i, &registry, node_cfg, log);
  }

  // Deterministic open-loop workload: nodes 1 and 3 (both survive) keep
  // proposing across the kill and the heal.
  int n = 0;
  for (TimeNs t = 100 * kMillisecond; t < 9 * kSecond;
       t += 10 * kMillisecond) {
    env.sim().schedule_at(t, [&env, t, v = n++] {
      const ProcessId via = (t / (10 * kMillisecond)) % 3 == 0 ? 3 : 1;
      env.process_as<HealProbeNode>(via)->multicast(
          0, Payload("h" + std::to_string(v)));
    });
  }

  // Kill acceptor 2 permanently — no restart event; recovery must come from
  // the standby pool, not the victim.
  fault::FaultPlan plan;
  plan.crash(3 * kSecond, 2);

  fault::ScenarioRunner runner(env, std::move(plan));
  runner.watch_group("ring0", {1, 2, 3, 4}, [log](ProcessId pid) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string& s : (*log)[pid]) {
      for (const char c : s) {
        h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
        h *= 1099511628211ULL;
      }
      h *= 1099511628211ULL;
    }
    return h;
  });
  runner.watch_progress("survivor-delivery",
                        [log] { return (*log)[1].size(); });
  runner.add_invariant(
      "auto-heal-completed",
      [&env, &registry]() -> std::optional<std::string> {
        if (registry.heal_count() != 1) {
          return "expected exactly one heal, saw " +
                 std::to_string(registry.heal_count());
        }
        const coord::RingView& v = registry.current_view(0);
        if (v.configured_acceptors != std::vector<ProcessId>{1, 3, 4}) {
          return "healed acceptor basis is not {1,3,4}";
        }
        if (v.contains(2)) return "dead acceptor 2 still a ring member";
        if (!env.process_as<HealProbeNode>(4)->handler(0)->is_acceptor()) {
          return "drafted standby 4 never became an acceptor";
        }
        if (!registry.standbys(0).empty()) {
          return "standby pool not consumed by the draft";
        }
        return std::nullopt;
      });

  HealScenarioResult out;
  out.report = runner.run(10 * kSecond, 5 * kSecond);
  out.heal_count = registry.heal_count();
  out.deliveries_at_survivor = (*log)[1].size();
  return out;
}

TEST(FaultScenarios, PermanentAcceptorLossSelfHealsDeterministically) {
  auto r1 = scenario_acceptor_selfheal(7012);
  auto r2 = scenario_acceptor_selfheal(7012);
  EXPECT_TRUE(r1.report.ok()) << r1.report.violations_text();
  EXPECT_EQ(r1.report.trace, r2.report.trace)
      << "heal schedule not reproducible";
  EXPECT_EQ(r1.report.state_digest, r2.report.state_digest)
      << "same-seed self-heal diverged";
  ASSERT_EQ(r1.report.trace.size(), 1u);  // the permanent crash, nothing else
  EXPECT_EQ(r1.heal_count, 1u);
  EXPECT_GT(r1.deliveries_at_survivor, 100u);
  EXPECT_EQ(r1.deliveries_at_survivor, r2.deliveries_at_survivor);
}

// ---------------------------------------------------------------------------
// Unit coverage of the injection primitives themselves.

TEST(FaultPlan, DescribeAndOrdering) {
  fault::FaultPlan plan;
  plan.restart(5 * kSecond, 7);
  plan.crash(2 * kSecond, 7);
  plan.chaos_window(kSecond, 3 * kSecond, sim::NetFault{0.5, 0.0, 0});
  const auto lines = plan.describe();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("net-chaos"), std::string::npos);
  EXPECT_NE(lines[1].find("crash p7"), std::string::npos);
  EXPECT_NE(lines[2].find("net-calm"), std::string::npos);
  EXPECT_NE(lines[3].find("restart p7"), std::string::npos);
  EXPECT_EQ(plan.last_event_time(), 5 * kSecond);
}

TEST(FaultInjector, SkipsInapplicableEventsInsteadOfAborting) {
  sim::Env env(1);
  // A bare process so crash/restart have a target.
  struct Nop : runtime::Node {
    using runtime::Node::Node;
    void on_message(ProcessId, const runtime::Message&) override {}
  };
  env.spawn<Nop>(1);

  fault::FaultPlan plan;
  plan.crash(kMillisecond, 1);
  plan.crash(2 * kMillisecond, 1);    // already down -> skipped
  plan.restart(3 * kMillisecond, 1);
  plan.restart(4 * kMillisecond, 1);  // already up -> skipped
  fault::FaultInjector injector(env, plan);
  injector.arm();
  env.sim().run_for(10 * kMillisecond);

  ASSERT_EQ(injector.trace().size(), 4u);
  EXPECT_EQ(injector.applied(), 2u);
  EXPECT_NE(injector.trace()[1].find("skipped"), std::string::npos);
  EXPECT_NE(injector.trace()[3].find("skipped"), std::string::npos);
  EXPECT_TRUE(env.is_alive(1));
}

TEST(NetworkChaos, DropDuplicateDelayAreSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    sim::Env env(seed);
    struct Counter : runtime::Node {
      using runtime::Node::Node;
      std::vector<int> seen;
      void on_message(ProcessId, const runtime::Message& m) override {
        seen.push_back(m.kind());
      }
    };
    struct Ping : runtime::Message {
      int k;
      explicit Ping(int kk) : k(kk) {}
      int kind() const override { return k; }
      std::size_t wire_size() const override { return 64; }
    };
    env.spawn<Counter>(1);
    auto* rx = env.spawn<Counter>(2);
    env.net().set_fault(sim::NetFault{0.2, 0.2, kMillisecond});
    for (int i = 0; i < 200; ++i) {
      env.process(1)->send(2, std::make_shared<Ping>(1000 + i));
    }
    env.sim().run_for(kSecond);
    return std::make_tuple(rx->seen, env.net().faults_dropped(),
                           env.net().faults_duplicated(),
                           env.net().faults_delayed());
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_EQ(a, b) << "chaos must be a pure function of the seed";
  EXPECT_GT(std::get<1>(a), 0u);
  EXPECT_GT(std::get<2>(a), 0u);
  EXPECT_GT(std::get<3>(a), 0u);
  // Some messages must actually arrive.
  EXPECT_FALSE(std::get<0>(a).empty());
}

TEST(NetworkChaos, IsolationCutsDataPlaneBothWays) {
  sim::Env env(1);
  struct Counter : runtime::Node {
    using runtime::Node::Node;
    int seen = 0;
    void on_message(ProcessId, const runtime::Message&) override { ++seen; }
  };
  struct Ping : runtime::Message {
    int kind() const override { return 1; }
    std::size_t wire_size() const override { return 16; }
  };
  auto* a = env.spawn<Counter>(1);
  auto* b = env.spawn<Counter>(2);
  env.net().set_isolated(2, true);
  env.process(1)->send(2, std::make_shared<Ping>());
  env.process(2)->send(1, std::make_shared<Ping>());
  env.sim().run_for(kMillisecond);
  EXPECT_EQ(a->seen, 0);
  EXPECT_EQ(b->seen, 0);
  env.net().set_isolated(2, false);
  env.process(1)->send(2, std::make_shared<Ping>());
  env.sim().run_for(kMillisecond);
  EXPECT_EQ(b->seen, 1);
}

TEST(DiskFaults, StallAndSlowdownExtendCompletionTimes) {
  sim::Env env(1);
  env.set_disk_params(1, 0, sim::DiskParams{kMillisecond, 1e9});
  sim::Disk& disk = env.disk(1, 0);

  TimeNs done_at = -1;
  disk.write(0, [&] { done_at = env.now(); });
  env.sim().run_until_idle();
  EXPECT_EQ(done_at, kMillisecond);

  disk.stall(10 * kMillisecond);
  EXPECT_EQ(disk.stalls(), 1u);
  TimeNs done2 = -1;
  disk.write(0, [&] { done2 = env.now(); });
  env.sim().run_until_idle();
  EXPECT_EQ(done2, kMillisecond + 10 * kMillisecond + kMillisecond);

  disk.set_slowdown(3.0);
  EXPECT_EQ(disk.slowdown(), 3.0);
  TimeNs done3 = -1;
  disk.write(0, [&] { done3 = env.now(); });
  env.sim().run_until_idle();
  EXPECT_EQ(done3, done2 + 3 * kMillisecond);
}

}  // namespace
}  // namespace mrp
