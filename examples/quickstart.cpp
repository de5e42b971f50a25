// Quickstart: atomic multicast in ~80 lines.
//
// Builds two multicast groups on a simulated cluster, three nodes that
// subscribe to both, and one node that subscribes to only the second group;
// multicasts a handful of messages and prints each node's delivery
// sequence. Note that (a) the full subscribers deliver the *identical*
// merged sequence, and (b) the partial subscriber sees exactly the second
// group's messages, in the same relative order.
//
//   ./example_quickstart
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

using namespace mrp;

namespace {

/// Minimal learner: records deliveries into a shared journal.
class EchoNode : public multiring::MultiRingNode {
 public:
  using Journal =
      std::shared_ptr<std::map<ProcessId, std::vector<std::string>>>;

  EchoNode(runtime::Runtime& rt, coord::Registry* registry,
           multiring::NodeConfig config, Journal journal)
      : MultiRingNode(rt, registry, std::move(config)) {
    set_deliver([this, journal](GroupId g, InstanceId i, const Payload& p) {
      (void)i;
      (*journal)[this->id()].push_back("g" + std::to_string(g) + ":" +
                                       p.as_string());
    });
  }
};

}  // namespace

int main() {
  sim::Env env(/*seed=*/7);
  env.net().set_default_link({from_micros(50), 10e9});  // 10 Gbps cluster
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender));

  // Two rings: nodes 1-3 are members of both; node 4 joins ring 2 only.
  for (GroupId ring : {1, 2}) {
    coord::RingConfig cfg;
    cfg.ring = ring;
    cfg.order = {1, 2, 3};
    if (ring == 2) cfg.order.push_back(4);
    cfg.acceptors = {1, 2, 3};
    registry.create_ring(cfg);
  }

  // Rate leveling (Delta = 5 ms, lambda = 2000/s) keeps the deterministic
  // merge flowing even when one group is idle.
  ringpaxos::RingParams params;
  params.lambda = 2000;
  params.skip_interval = 5 * kMillisecond;

  auto journal = std::make_shared<
      std::map<ProcessId, std::vector<std::string>>>();

  multiring::NodeConfig both;
  both.rings = {multiring::RingSub{1, params, true},
                multiring::RingSub{2, params, true}};
  multiring::NodeConfig only2;
  only2.rings = {multiring::RingSub{2, params, true}};

  for (ProcessId n : {1, 2, 3}) env.spawn<EchoNode>(n, &registry, both, journal);
  env.spawn<EchoNode>(4, &registry, only2, journal);

  env.sim().run_for(from_millis(20));  // let the rings elect coordinators

  // Multicast from different nodes to different groups.
  auto* n1 = env.process_as<EchoNode>(1);
  auto* n3 = env.process_as<EchoNode>(3);
  n1->multicast(1, Payload(std::string("alpha")));
  n3->multicast(2, Payload(std::string("bravo")));
  n1->multicast(2, Payload(std::string("charlie")));
  n3->multicast(1, Payload(std::string("delta")));

  env.sim().run_for(from_seconds(1));

  for (ProcessId n : {1, 2, 3, 4}) {
    std::printf("node %d delivered:", n);
    for (const auto& m : (*journal)[n]) std::printf("  %s", m.c_str());
    std::printf("\n");
  }
  return 0;
}
