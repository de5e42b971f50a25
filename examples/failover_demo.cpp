// Example: failure and recovery, end to end.
//
// A three-replica MRP-Store partition serves a steady write load while the
// demo (1) kills a replica, (2) lets checkpoints and acceptor-log trimming
// proceed during the outage, (3) restarts the replica — which installs a
// remote checkpoint from a peer because the log no longer reaches back far
// enough — and (4) verifies that the recovered replica converges to the
// survivors, all without interrupting the service.
//
//   ./example_failover_demo
#include <cstdio>
#include <memory>
#include <string>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

using namespace mrp;

namespace {

mrpstore::KvStateMachine& kv_of(sim::Env& env, ProcessId r) {
  return dynamic_cast<mrpstore::KvStateMachine&>(
      env.process_as<smr::ReplicaNode>(r)->state_machine());
}

}  // namespace

int main() {
  sim::Env env(34);
  env.net().set_default_link({from_micros(50), 10e9});
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           50 * kMillisecond);

  mrpstore::StoreOptions so;
  so.partitions = 1;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.replica_options.checkpoint.interval = 500 * kMillisecond;
  so.replica_options.trim.interval = kSecond;
  auto dep = build_store(env, registry, so);
  mrpstore::StoreClient store(dep);

  std::uint64_t completed = 0;
  auto* client = env.spawn<smr::ClientNode>(
      900, smr::ClientNode::Options{8, kSecond, 0},
      smr::ClientNode::NextFn(
          [&store, n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
            const int key = n % 512;
            ++n;
            return store.insert("item" + std::to_string(key),
                                to_bytes(std::to_string(n)));
          }),
      smr::ClientNode::DoneFn([&](const smr::Completion&) { ++completed; }));

  const ProcessId victim = dep.replicas[0][2];

  env.sim().run_for(from_seconds(2));
  std::printf("t=2s   load running, %llu writes done; killing replica %d\n",
              static_cast<unsigned long long>(completed), victim);
  const std::uint64_t at_kill = completed;
  env.crash(victim);

  env.sim().run_for(from_seconds(6));
  auto* survivor = env.process_as<smr::ReplicaNode>(dep.replicas[0][0]);
  std::printf(
      "t=8s   outage: +%llu writes served by survivors; checkpoints=%llu "
      "log trimmed to instance %llu\n",
      static_cast<unsigned long long>(completed - at_kill),
      static_cast<unsigned long long>(
          survivor->checkpointer().checkpoints_taken()),
      static_cast<unsigned long long>(
          survivor->handler(dep.partition_groups[0])->log()->trimmed_to()));

  std::printf("t=8s   restarting replica %d\n", victim);
  env.recover(victim);
  env.sim().run_for(from_seconds(4));
  client->stop();
  env.sim().run_for(from_seconds(2));

  auto* recovered = env.process_as<smr::ReplicaNode>(victim);
  std::printf(
      "t=14s  recovered: remote checkpoint installs=%llu, state size=%zu\n",
      static_cast<unsigned long long>(
          recovered->checkpointer().remote_installs()),
      kv_of(env, victim).size());

  const auto d0 = kv_of(env, dep.replicas[0][0]).digest();
  const auto d1 = kv_of(env, dep.replicas[0][1]).digest();
  const auto d2 = kv_of(env, victim).digest();
  const bool ok = (d0 == d1) && (d1 == d2) && completed > 1000;
  std::printf("digests: %016llx %016llx %016llx\n",
              static_cast<unsigned long long>(d0),
              static_cast<unsigned long long>(d1),
              static_cast<unsigned long long>(d2));
  std::printf("%s\n", ok ? "PASS: recovered replica converged with survivors"
                         : "FAIL: divergence after recovery");
  return ok ? 0 : 1;
}
