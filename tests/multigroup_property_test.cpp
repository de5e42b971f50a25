// Property battery for atomic multi-group multicast at the smr layer.
//
// Randomized workloads (seed-swept, mixed single- and multi-group commands
// from the same sessions) against a deployment of "full" replicas that
// subscribe every group and "partial" replicas that subscribe exactly one.
// Checked invariants:
//   * same subscription set => identical execution interleaving — full
//     replicas execute the identical sequence of commands, single- and
//     multi-group interleaved,
//   * exactly-once per replica — a command addressed to k groups is
//     delivered up to k times at a full replica but executes exactly once
//     (and exactly once at every partial replica of an addressed group),
//   * validity — every completed request executed at every replica that
//     subscribes one of its addressed groups,
//   * determinism — re-running the identical seed reproduces the
//     bit-identical execution trace and digest.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "coord/registry.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace mrp::smr {
namespace {

constexpr int kFullTag = 100;  // partition_tag of the full subscribers

/// One executed command, as observed by the logging state machine.
struct Execution {
  ProcessId node;
  std::string op;
};

using ExecLog = std::vector<Execution>;

/// Appends every applied op to a shared log (keyed by replica pid) and
/// counts local executions. Duplicated execution would be immediately
/// visible as a repeated op id in the replica's log slice.
class LogSm final : public StateMachine {
 public:
  LogSm(ProcessId id, std::shared_ptr<ExecLog> log)
      : id_(id), log_(std::move(log)) {}

  Bytes apply(GroupId, const Bytes& op) override {
    log_->push_back({id_, mrp::to_string(op)});
    ++applied_;
    return to_bytes(std::to_string(applied_));
  }
  Bytes snapshot() const override {
    return to_bytes(std::to_string(applied_));
  }
  void restore(const Bytes& s) override {
    applied_ = std::stoull(mrp::to_string(s));
  }

 private:
  ProcessId id_;
  std::shared_ptr<ExecLog> log_;
  std::uint64_t applied_ = 0;
};

struct Params {
  std::uint64_t seed;
  int groups;        // number of rings / partial replicas
  int full_nodes;    // replicas subscribing every group
  int ops;           // total client requests
  int multi_percent; // % of requests addressed to >= 2 groups
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "seed" + std::to_string(p.seed) + "_g" + std::to_string(p.groups) +
         "_n" + std::to_string(p.full_nodes) + "_ops" +
         std::to_string(p.ops) + "_mp" + std::to_string(p.multi_percent);
}

/// Result of one simulated run: per-replica execution slices plus the
/// issued workload (op id -> addressed groups) and completion count.
struct RunResult {
  std::shared_ptr<ExecLog> log = std::make_shared<ExecLog>();
  std::map<std::string, std::vector<GroupId>> issued;
  std::set<std::string> completed;
  std::uint64_t completions = 0;

  std::vector<std::string> sequence_of(ProcessId n) const {
    std::vector<std::string> out;
    for (const Execution& e : *log) {
      if (e.node == n) out.push_back(e.op);
    }
    return out;
  }

  /// Order-sensitive FNV digest over the full execution trace.
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const void* p, std::size_t n) {
      const auto* c = static_cast<const std::uint8_t*>(p);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= c[i];
        h *= 1099511628211ULL;
      }
    };
    for (const Execution& e : *log) {
      mix(&e.node, sizeof(e.node));
      mix(e.op.data(), e.op.size());
    }
    return h;
  }
};

class MultiGroupProperty : public ::testing::TestWithParam<Params> {
 protected:
  static constexpr ProcessId kClient = 500;

  RunResult run_once() {
    const Params& P = GetParam();
    RunResult result;

    sim::Env env(P.seed);
    coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                             50 * kMillisecond);

    ringpaxos::RingParams rp;
    rp.lambda = 2000;
    rp.skip_interval = 5 * kMillisecond;
    rp.gap_timeout = 20 * kMillisecond;

    // Full replicas 1..F subscribe every group; partial replica F+1+g
    // subscribes only group g (the "partition" answering with tag g).
    std::vector<ProcessId> full;
    for (int i = 0; i < P.full_nodes; ++i) full.push_back(i + 1);
    const auto partial_of = [&](GroupId g) {
      return static_cast<ProcessId>(P.full_nodes + 1 + g);
    };

    for (GroupId g = 0; g < P.groups; ++g) {
      coord::RingConfig cfg;
      cfg.ring = g;
      cfg.order = full;
      cfg.order.push_back(partial_of(g));
      cfg.acceptors.insert(full.begin(), full.end());
      registry.create_ring(cfg);
    }

    const StateMachineFactory factory(
        [log = result.log](runtime::Runtime&, ProcessId id) {
          return std::make_unique<LogSm>(id, log);
        });

    multiring::NodeConfig full_cfg;
    for (GroupId g = 0; g < P.groups; ++g) {
      full_cfg.rings.push_back(multiring::RingSub{g, rp, true});
    }
    ReplicaOptions full_opts;
    full_opts.partition_tag = kFullTag;
    for (ProcessId n : full) {
      env.spawn<ReplicaNode>(n, &registry, full_cfg, factory, full_opts);
    }
    for (GroupId g = 0; g < P.groups; ++g) {
      multiring::NodeConfig cfg;
      cfg.rings.push_back(multiring::RingSub{g, rp, true});
      ReplicaOptions opts;
      opts.partition_tag = static_cast<int>(g);
      env.spawn<ReplicaNode>(partial_of(g), &registry, cfg, factory, opts);
    }
    env.sim().run_for(from_millis(20));

    // Randomized workload: every worker interleaves single-group commands
    // with atomic multi-group ones (random subsets of >= 2 groups) — the
    // mix that forces a full subscriber to gather one command's copies
    // while later commands of the same session keep executing.
    Rng rng(P.seed * 6151 + 7);
    int issued_count = 0;
    const auto targets_of = [&](GroupId g) {
      std::vector<ProcessId> t = full;
      t.push_back(partial_of(g));
      return t;
    };
    ClientNode::NextFn next = [&](std::uint32_t) -> std::optional<Request> {
      if (issued_count >= P.ops) return std::nullopt;
      const std::string op = "op" + std::to_string(issued_count++);
      Request req;
      req.op = to_bytes(op);
      const bool multi =
          P.groups >= 2 &&
          rng.next_below(100) < static_cast<std::uint64_t>(P.multi_percent);
      if (multi) {
        const int width =
            2 + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(P.groups - 1)));
        std::set<GroupId> chosen;
        while (static_cast<int>(chosen.size()) < width) {
          chosen.insert(static_cast<GroupId>(
              rng.next_below(static_cast<std::uint64_t>(P.groups))));
        }
        for (GroupId g : chosen) {
          req.sends.push_back(Request::Send{g, targets_of(g)});
        }
        req.expected_partitions = chosen.size();
        req.atomic = true;
        result.issued[op] = {chosen.begin(), chosen.end()};
      } else {
        const auto g = static_cast<GroupId>(
            rng.next_below(static_cast<std::uint64_t>(P.groups)));
        req.sends.push_back(Request::Send{g, targets_of(g)});
        req.expected_partitions = 1;
        result.issued[op] = {g};
      }
      return req;
    };
    auto* client = env.spawn<ClientNode>(
        kClient, ClientNode::Options{4, kSecond, 0}, std::move(next),
        ClientNode::DoneFn([&result](const Completion& c) {
          ++result.completions;
          result.completed.insert(mrp::to_string(c.op));
        }));

    env.sim().run_for(from_seconds(30));
    env.sim().run_for(from_seconds(8));  // drain
    result.completions = client->completed();
    return result;
  }
};

TEST_P(MultiGroupProperty, IdenticalInterleavingAndExactlyOnce) {
  const Params& P = GetParam();
  const RunResult r = run_once();

  // Liveness: the whole workload completed (no multi-group command stuck
  // half-gathered).
  ASSERT_EQ(r.completed.size(), static_cast<std::size_t>(P.ops));

  // (1) Identical interleaving for replicas with the same subscription
  // set: every full replica executed the identical sequence of single- and
  // multi-group commands.
  const std::vector<std::string> ref = r.sequence_of(1);
  for (int n = 2; n <= P.full_nodes; ++n) {
    const auto seq = r.sequence_of(n);
    ASSERT_EQ(seq, ref) << "full replica " << n
                        << " diverged from replica 1";
  }

  // (2) Exactly-once per replica: a command multicast to k groups is
  // delivered up to k times at a full replica but executes exactly once —
  // and exactly once at the partial replica of every addressed group
  // (never at an unaddressed one).
  std::map<std::string, int> full_counts;
  for (const std::string& op : ref) ++full_counts[op];
  for (const auto& [op, groups] : r.issued) {
    ASSERT_EQ(full_counts[op], 1)
        << op << " (addressed to " << groups.size()
        << " groups) must execute exactly once per replica";
  }
  for (GroupId g = 0; g < P.groups; ++g) {
    const auto pid = static_cast<ProcessId>(P.full_nodes + 1 + g);
    std::map<std::string, int> counts;
    for (const std::string& op : r.sequence_of(pid)) ++counts[op];
    for (const auto& [op, groups] : r.issued) {
      const bool addressed =
          std::find(groups.begin(), groups.end(), g) != groups.end();
      ASSERT_EQ(counts[op], addressed ? 1 : 0)
          << op << " at partial replica of group " << g;
    }
  }
}

TEST_P(MultiGroupProperty, TraceAndDigestReplayBitIdentical) {
  const RunResult a = run_once();
  const RunResult b = run_once();
  ASSERT_EQ(a.digest(), b.digest());
  ASSERT_EQ(a.log->size(), b.log->size());
  for (std::size_t i = 0; i < a.log->size(); ++i) {
    ASSERT_EQ((*a.log)[i].node, (*b.log)[i].node) << "trace diverged at " << i;
    ASSERT_EQ((*a.log)[i].op, (*b.log)[i].op) << "trace diverged at " << i;
  }
  ASSERT_EQ(a.completions, b.completions);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiGroupProperty,
    ::testing::Values(Params{21, 2, 3, 60, 40}, Params{22, 3, 3, 60, 40},
                      Params{23, 4, 3, 60, 50}, Params{24, 2, 5, 80, 30},
                      Params{25, 3, 3, 80, 70}, Params{26, 4, 5, 60, 50},
                      Params{27, 3, 3, 100, 100}, Params{28, 2, 3, 100, 20}),
    param_name);

}  // namespace
}  // namespace mrp::smr
