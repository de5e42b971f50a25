// Figure 7 — Horizontal scalability of MRP-Store across EC2 regions.
//
// Deployments of 1..4 regions. Each region hosts one partition: a ring of
// three proposer/acceptor processes plus one replica (learner), all local to
// the region; the replicas of every region additionally form a global ring.
// WAN configuration from the paper: M=1, Delta=20 ms, lambda=2000. One
// client per region sends 1 KB update commands to its local replica, which
// batches them into 32 KB multicast values. Reported: aggregate throughput
// with linear-scaling percentages, and the latency CDF measured in
// us-west-2.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

// Semi-open load: 1600 workers issuing one command every 400 ms offer a
// constant ~4000 ops/s per region, independent of delivery latency (the
// paper's clients similarly keep each region's offered load fixed).
constexpr int kWorkersPerRegion = 1600;
constexpr TimeNs kThinkTime = 400 * kMillisecond;
// Region order of deployment: us-west-2 first so the latency probe region
// is present at every scale.
const int kRegionOrder[] = {3, 2, 1, 0};

/// Plain ring member hosting proposer/acceptor roles only.
class AcceptorNode : public multiring::MultiRingNode {
 public:
  using MultiRingNode::MultiRingNode;
};

struct Point {
  double aggregate_ops;
  Histogram uswest2_latency;
  std::vector<double> per_region_ops;
  bench::FlowMetrics flow;
};

Point run(int regions) {
  sim::Env env(70 + static_cast<std::uint64_t>(regions));
  bench::configure_ec2(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           500 * kMillisecond);

  ringpaxos::RingParams wan;
  wan.lambda = 2000;
  wan.skip_interval = 20 * kMillisecond;  // Delta
  wan.gap_timeout = 200 * kMillisecond;
  wan.phase2_retry = 2 * kSecond;
  wan.proposal_retry = 4 * kSecond;

  // Process ids: region r has acceptors 10r+1..10r+3, replica 10r+4,
  // client 10r+5.
  std::vector<ProcessId> replicas;
  const GroupId global_group = 100;
  for (int i = 0; i < regions; ++i) {
    const int site = kRegionOrder[i];
    coord::RingConfig rc;
    rc.ring = i;
    for (ProcessId p = 10 * i + 1; p <= 10 * i + 4; ++p) {
      rc.order.push_back(p);
      env.net().set_site(p, site);
      if (p != 10 * i + 4) rc.acceptors.insert(p);
    }
    registry.create_ring(rc);
    replicas.push_back(10 * i + 4);
    env.net().set_site(10 * i + 5, site);
  }
  coord::RingConfig gc;
  gc.ring = global_group;
  gc.order = replicas;
  gc.acceptors.insert(replicas.begin(), replicas.end());
  registry.create_ring(gc);

  // Spawn acceptors and replicas.
  for (int i = 0; i < regions; ++i) {
    multiring::NodeConfig acfg;
    acfg.rings.push_back(multiring::RingSub{i, wan, false});
    for (ProcessId p = 10 * i + 1; p <= 10 * i + 3; ++p) {
      env.spawn<AcceptorNode>(p, &registry, acfg);
      env.set_cpu(p, bench::server_cpu());
    }
    multiring::NodeConfig rcfg;
    rcfg.rings.push_back(multiring::RingSub{i, wan, true});
    rcfg.rings.push_back(multiring::RingSub{global_group, wan, true});
    smr::ReplicaOptions ro;
    ro.partition_tag = i;
    ro.batch_bytes = 32 * 1024;
    ro.batch_delay = 10 * kMillisecond;  // the 32 KB batching proxy
    env.spawn<smr::ReplicaNode>(
        replicas[static_cast<std::size_t>(i)], &registry, rcfg,
        smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
          return std::make_unique<mrpstore::KvStateMachine>();
        }),
        ro);
    env.set_cpu(replicas[static_cast<std::size_t>(i)], bench::server_cpu());
  }

  // Preload each region's keys and start its client.
  std::vector<smr::ClientNode*> clients;
  for (int i = 0; i < regions; ++i) {
    auto* rep = env.process_as<smr::ReplicaNode>(
        replicas[static_cast<std::size_t>(i)]);
    auto& kv = dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine());
    for (int k = 0; k < 1024; ++k) {
      kv.preload("r" + std::to_string(i) + "k" + std::to_string(k),
                 Bytes(1024, 0x44));
    }
    auto* c = env.spawn<smr::ClientNode>(
        10 * i + 5,
        smr::ClientNode::Options{kWorkersPerRegion, 10 * kSecond,
                                 100 * kMillisecond, kThinkTime},
        smr::ClientNode::NextFn(
            [i, target = replicas[static_cast<std::size_t>(i)],
             n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
              mrpstore::Op op;
              op.type = mrpstore::OpType::kUpdate;
              op.key = "r" + std::to_string(i) + "k" +
                       std::to_string(n++ % 1024);
              op.value = Bytes(1024, 0x55);
              smr::Request r;
              r.sends.push_back(smr::Request::Send{i, {target}});
              r.op = mrpstore::encode_op(op);
              return r;
            }),
        smr::ClientNode::DoneFn(nullptr));
    clients.push_back(c);
  }

  env.sim().run_for(from_seconds(5));  // pipeline fill
  std::vector<std::uint64_t> before;
  for (auto* c : clients) {
    before.push_back(c->completed());
    c->latency_histogram().clear();
  }
  const TimeNs measure = from_seconds(20);
  env.sim().run_for(measure);

  Point p{0, Histogram(), {}, {}};
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const double ops =
        static_cast<double>(clients[i]->completed() - before[i]) /
        to_seconds(measure);
    p.per_region_ops.push_back(ops);
    p.aggregate_ops += ops;
  }
  // us-west-2 is deployment index 0 (see kRegionOrder).
  p.uswest2_latency.merge(clients[0]->latency_histogram());
  std::vector<GroupId> groups;
  for (int i = 0; i < regions; ++i) groups.push_back(i);
  p.flow = bench::collect_flow(env, replicas, groups);
  return p;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 7: MRP-Store horizontal scalability across EC2 regions "
      "(update-only, 1 KB commands in 32 KB batches, M=1 Delta=20ms "
      "lambda=2000)");
  std::printf("%8s %18s %12s %s\n", "regions", "aggregate_ops/s",
              "linear_pct", "per-region ops/s");

  bench::BenchReporter rep("fig7_horizontal");
  rep.config("workers_per_region", kWorkersPerRegion)
      .config("think_time_ms", static_cast<double>(kThinkTime) / 1e6)
      .config("command_bytes", 1024)
      .config("batch_bytes", 32 * 1024)
      .config("lambda", 2000)
      .config("delta_ms", 20)
      .config("network", "ec2");

  double prev_per_region = 0;
  std::vector<Histogram> cdfs;
  for (int regions = 1; regions <= 4; ++regions) {
    Point p = run(regions);
    const double per_region = p.aggregate_ops / regions;
    const double pct =
        prev_per_region > 0 ? 100.0 * per_region / prev_per_region : 100.0;
    std::printf("%8d %18.0f %11.0f%%  [", regions, p.aggregate_ops, pct);
    auto& row = rep.row(std::to_string(regions) + "-regions")
                    .metric("regions", regions)
                    .metric("throughput_ops", p.aggregate_ops)
                    .metric("linear_scaling_pct", pct)
                    .latency(p.uswest2_latency);
    bench::add_flow_metrics(row, p.flow);
    for (std::size_t i = 0; i < p.per_region_ops.size(); ++i) {
      std::printf("%s%s=%.0f", i ? " " : "",
                  bench::region_name(kRegionOrder[i]), p.per_region_ops[i]);
      row.metric(std::string("ops_") + bench::region_name(kRegionOrder[i]),
                 p.per_region_ops[i]);
    }
    std::printf("]\n");
    prev_per_region = per_region;
    cdfs.push_back(std::move(p.uswest2_latency));
  }
  bench::print_header("Figure 7 (bottom): latency CDF in us-west-2");
  for (std::size_t i = 0; i < cdfs.size(); ++i) {
    bench::print_cdf(cdfs[i], std::to_string(i + 1) + " region(s)", 10);
  }
  return rep.write() ? 0 : 1;
}
