// Example: a geo-replicated MRP-Store across four regions, with live
// scale-out.
//
// Shows how to describe a WAN topology (sites + inter-region latencies),
// deploy one range-partitioned region per site with a global ring for
// cross-partition ordering, and measure what each region's clients
// experience. Halfway through the run the busiest region's partition is
// split *while serving traffic*: a new ring + fresh replicas in the same
// region take over half its key range via ordered cutover and state
// transfer, and clients recover from stale routes automatically
// (kStaleRouting -> schema refresh -> retry).
//
//   ./example_geo_store
#include <cstdio>
#include <memory>
#include <string>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/elastic.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

using namespace mrp;

int main() {
  sim::Env env(2026);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           500 * kMillisecond);

  // Geography: 0=eu-west, 1=us-east, 2=us-west-1, 3=us-west-2 (one-way ms).
  const char* names[] = {"eu-west-1", "us-east-1", "us-west-1", "us-west-2"};
  for (int s = 0; s < 4; ++s) env.net().set_site_local_latency(s, from_micros(150));
  env.net().set_site_latency(0, 1, from_millis(40));
  env.net().set_site_latency(0, 2, from_millis(70));
  env.net().set_site_latency(0, 3, from_millis(65));
  env.net().set_site_latency(1, 2, from_millis(35));
  env.net().set_site_latency(1, 3, from_millis(30));
  env.net().set_site_latency(2, 3, from_millis(10));
  env.net().set_site_bandwidth(1e9);

  // One partition (ring of 3 replicas) per region + a global ring; the
  // range schema maps region r to partition r, so it can shed a sub-range
  // online later. WAN parameters from the paper: Delta=20 ms, lambda=2000.
  mrpstore::StoreOptions so;
  so.partitions = 4;
  so.replicas_per_partition = 3;
  so.global_ring = true;
  // Replica r of partition p is process first_pid + p * 3 + r; place each
  // partition in its region before the replicas start.
  for (int p = 0; p < 4; ++p) {
    for (int r = 0; r < 3; ++r) env.net().set_site(so.first_pid + p * 3 + r, p);
  }
  so.partitioner =
      mrpstore::RangePartitioner({"region1", "region2", "region3"}).encode();
  so.ring_params.lambda = 2000;
  so.ring_params.skip_interval = 20 * kMillisecond;
  so.ring_params.gap_timeout = 200 * kMillisecond;
  so.global_params = so.ring_params;
  so.replica_options.batch_bytes = 32 * 1024;
  so.replica_options.batch_delay = 5 * kMillisecond;
  auto dep = build_store(env, registry, so);
  mrpstore::StoreClient store(dep);

  // One client per region writing region-local keys; every client wears the
  // stale-routing retry hook, so the mid-run split is transparent to it.
  std::vector<smr::ClientNode*> clients;
  for (int region = 0; region < 4; ++region) {
    const ProcessId cpid = 900 + region;
    env.net().set_site(cpid, region);
    auto* c = env.spawn<smr::ClientNode>(
        cpid, smr::ClientNode::Options{16, 5 * kSecond, 0},
        smr::ClientNode::NextFn(
            [&store, region, n = 0](std::uint32_t) mutable
            -> std::optional<smr::Request> {
              const std::string key =
                  "region" + std::to_string(region) + "/doc" +
                  std::to_string(n++ % 256);
              return store.insert(key, to_bytes("v"));
            }),
        smr::ClientNode::DoneFn(nullptr));
    c->set_reroute(store.reroute_fn(&registry));
    clients.push_back(c);
  }

  // A roaming analyst in eu-west runs global scans (consistent snapshots
  // across all regions, ordered with every write).
  std::size_t last_scan_size = 0;
  env.net().set_site(910, 0);
  env.spawn<smr::ClientNode>(
      910, smr::ClientNode::Options{1, 10 * kSecond, kSecond},
      smr::ClientNode::NextFn([&store](std::uint32_t)
                                  -> std::optional<smr::Request> {
        return store.scan("region", "regioo", 0);
      }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        last_scan_size =
            mrpstore::StoreClient::merge_scan(c.results).entries.size();
      }));

  env.sim().run_for(from_seconds(7));
  const std::uint64_t writes_before_split = clients[3]->completed();

  // us-west-2 is running hot: split its partition at doc2, moving docs
  // 2xx/3../9.. to a new ring (replicas 500-502) in the same region — all
  // while the writes above keep flowing.
  std::printf("t=7s: splitting us-west-2's partition (live)...\n");
  mrpstore::SplitSpec spec;
  spec.source_group = dep.partition_groups[3];
  spec.split_key = "region3/doc2";
  spec.new_group = 100;
  spec.new_replicas = {500, 501, 502};
  spec.ring_params = so.ring_params;
  spec.global_params = so.global_params;
  spec.replica_options = so.replica_options;
  spec.admin_pid = 899;
  for (ProcessId pid : spec.new_replicas) env.net().set_site(pid, 3);
  split_partition(env, registry, dep, spec);

  env.sim().run_for(from_seconds(8));

  std::printf("geo store after 15 s (schema v%llu, %zu partitions):\n",
              static_cast<unsigned long long>(dep.schema_version),
              dep.partition_groups.size());
  bool ok = true;
  for (int region = 0; region < 4; ++region) {
    auto* c = clients[static_cast<std::size_t>(region)];
    std::printf("  %-10s: %6llu writes, p50 latency %.0f ms, %llu reroutes\n",
                names[region],
                static_cast<unsigned long long>(c->completed()),
                static_cast<double>(c->latency_histogram().quantile(0.5)) /
                    1e6,
                static_cast<unsigned long long>(c->reroutes()));
    ok = ok && c->completed() > 100;
  }
  std::printf("  last global scan saw %zu documents (totally ordered with "
              "all writes)\n",
              last_scan_size);
  ok = ok && last_scan_size > 0;

  // The split must have gone live: schema v2, the new replicas carry the
  // transferred + fresh upper-half documents, and region-3 writes kept
  // completing (some rerouted) after the cutover.
  auto& new_kv = dynamic_cast<mrpstore::KvStateMachine&>(
      env.process_as<smr::ReplicaNode>(500)->state_machine());
  std::printf("  new us-west-2 ring: %zu docs after live state transfer, "
              "%llu writes kept flowing post-split\n",
              new_kv.size(),
              static_cast<unsigned long long>(clients[3]->completed() -
                                              writes_before_split));
  ok = ok && dep.schema_version == 2 && new_kv.size() > 0;
  ok = ok && clients[3]->completed() > writes_before_split + 50;
  ok = ok && clients[3]->reroutes() > 0;

  std::printf("%s\n", ok ? "PASS: all regions progressed, global scans "
                           "returned data, and the live split served traffic "
                           "throughout"
                         : "FAIL");
  return ok ? 0 : 1;
}
