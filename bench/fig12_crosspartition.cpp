// Figure 12 (extension) — the price of atomicity: goodput and latency vs
// the fraction of cross-partition transactions.
//
// Scaling out by partitioning only helps while transactions stay inside one
// partition; the classic multi-partition evaluation (H-Store/Calvin style,
// and the paper's own multi-group multicast motivation) sweeps the share of
// cross-partition transactions from 0% to 100% and watches goodput fall as
// more commands pay for multi-group ordering. This bench reproduces that
// sweep for MRP-Store's atomic transfers:
//
//   * 4 partitions x RF=3 on independent rings (no global ring),
//   * closed-loop tellers issue balance transfers; a configurable share
//     picks the two accounts from different partitions (a true multi-group
//     command: one copy per owning ring, gathered and executed exactly once
//     per replica), the rest stay inside one partition,
//   * each ratio runs in a fresh simulated cluster; rows report goodput and
//     p50/p99 client latency.
//
// The bench FAILS (non-zero exit) if conservation breaks: after each run
// drains, every replica of every partition must account for exactly the
// preloaded capital — a lost or duplicated transfer half shifts the sum.
//
//   ./fig12_crosspartition [--workers=W] [--warmup=S] [--seconds=S]
//                          [--accounts=N-per-partition]
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

constexpr ProcessId kClientPid = 900;
constexpr std::size_t kPartitions = 4;
constexpr std::int64_t kOpeningBalance = 1000;

struct Args {
  // Enough closed-loop tellers to saturate all four partitions — the sweep
  // measures capacity, and the atomicity tax (a cross-partition transfer
  // consumes a slot on two rings) only shows once slots are the bottleneck.
  std::uint32_t workers = 512;
  double warmup_seconds = 1.0;
  double measure_seconds = 4.0;
  int accounts = 64;  // per partition
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto val = [&s](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return s.compare(0, n, key) == 0 ? s.c_str() + n : nullptr;
    };
    if (const char* v = val("--workers=")) {
      a.workers = static_cast<std::uint32_t>(std::atoi(v));
    } else if (const char* v = val("--warmup=")) {
      a.warmup_seconds = std::atof(v);
    } else if (const char* v = val("--seconds=")) {
      a.measure_seconds = std::atof(v);
    } else if (const char* v = val("--accounts=")) {
      a.accounts = std::atoi(v);
    } else {
      std::fprintf(stderr,
                   "usage: fig12_crosspartition [--workers=W] [--warmup=S] "
                   "[--seconds=S] [--accounts=N]\n");
      std::exit(2);
    }
  }
  return a;
}

struct RunResult {
  double goodput_ops = 0;
  double p50_ms = 0, p99_ms = 0;
  std::uint64_t completed = 0;
  Histogram latency;
  bool conserved = false;
};

/// One fresh cluster, one cross-partition share. `cross_pct` of the
/// transfers pick their two accounts from different partitions.
RunResult run(int cross_pct, const Args& args, std::uint64_t seed) {
  sim::Env env(seed);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  mrpstore::StoreOptions so;
  so.partitions = kPartitions;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.replica_options.batch_bytes = 32 * 1024;
  so.replica_options.batch_delay = 500 * kMicrosecond;
  auto dep = mrpstore::build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) env.set_cpu(r, bench::server_cpu());

  // Accounts bucketed per owning partition (the default hash partitioner
  // spreads them), preloaded identically at every replica of the owner.
  std::vector<std::vector<std::string>> accounts(kPartitions);
  for (int i = 0; static_cast<int>(accounts[0].size()) < args.accounts ||
                  static_cast<int>(accounts[1].size()) < args.accounts ||
                  static_cast<int>(accounts[2].size()) < args.accounts ||
                  static_cast<int>(accounts[3].size()) < args.accounts;
       ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "acct%05d", i);
    const auto p =
        static_cast<std::size_t>(dep.partitioner->partition_for_key(buf));
    if (static_cast<int>(accounts[p].size()) < args.accounts) {
      accounts[p].emplace_back(buf);
    }
  }
  for (std::size_t p = 0; p < kPartitions; ++p) {
    for (ProcessId r : dep.replicas[p]) {
      auto* rep = env.process_as<smr::ReplicaNode>(r);
      auto& kv = dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine());
      for (const std::string& key : accounts[p]) {
        kv.preload(key, to_bytes(std::to_string(kOpeningBalance)));
      }
    }
  }

  auto helper = std::make_shared<mrpstore::StoreClient>(dep);
  const auto A = static_cast<std::uint64_t>(args.accounts);
  auto* client = env.spawn<smr::ClientNode>(
      kClientPid,
      mrpstore::StoreClient::client_options(args.workers, /*max_outstanding=*/
                                            512, /*retry_timeout=*/2 * kSecond),
      smr::ClientNode::NextFn([helper, &accounts, cross_pct, A,
                               n = std::uint64_t{0}](std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        const std::uint64_t k = n++;
        const std::size_t p1 = k % kPartitions;
        const bool cross = (k % 100) < static_cast<std::uint64_t>(cross_pct);
        const std::size_t p2 =
            cross ? (p1 + 1 + (k / 7) % (kPartitions - 1)) % kPartitions : p1;
        const std::string& from = accounts[p1][k % A];
        std::uint64_t to_idx = (k * 13 + 5) % A;
        if (p2 == p1 && to_idx == k % A) to_idx = (to_idx + 1) % A;
        return helper->transfer(from, accounts[p2][to_idx], 1);
      }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(args.warmup_seconds));
  const std::uint64_t before = client->completed();
  client->latency_histogram().clear();
  const TimeNs measure = from_seconds(args.measure_seconds);
  env.sim().run_for(measure);

  RunResult r;
  r.completed = client->completed() - before;
  r.goodput_ops = static_cast<double>(r.completed) / to_seconds(measure);
  r.latency = client->latency_histogram();
  r.p50_ms = static_cast<double>(r.latency.quantile(0.50)) / 1e6;
  r.p99_ms = static_cast<double>(r.latency.quantile(0.99)) / 1e6;

  // Drain, then audit: exact conservation at every replica — the atomicity
  // acceptance criterion (and all replicas of a partition must agree).
  client->stop();
  env.sim().run_for(from_seconds(3));
  const std::int64_t capital =
      static_cast<std::int64_t>(kPartitions) * args.accounts * kOpeningBalance;
  std::int64_t total = 0;
  r.conserved = true;
  for (std::size_t p = 0; p < kPartitions; ++p) {
    std::int64_t reference = -1;
    for (ProcessId rep : dep.replicas[p]) {
      std::int64_t sum = 0;
      for (const std::string& key : accounts[p]) {
        const auto v = dep.replica_get(env, rep, key);
        sum += v && !v->empty() ? std::stoll(to_string(*v)) : 0;
      }
      if (reference < 0) {
        reference = sum;
      } else if (sum != reference) {
        std::printf("FAIL: partition %zu replicas disagree (%lld vs %lld)\n",
                    p, static_cast<long long>(sum),
                    static_cast<long long>(reference));
        r.conserved = false;
      }
    }
    total += reference;
  }
  if (total != capital) {
    std::printf("FAIL: total balance %lld != capital %lld "
                "(a transfer half was lost or applied twice)\n",
                static_cast<long long>(total),
                static_cast<long long>(capital));
    r.conserved = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  bench::print_header(
      "Figure 12: goodput + latency vs cross-partition transaction share "
      "(4 partitions, RF=3, atomic transfers)");

  bench::BenchReporter rep("fig12_crosspartition");
  rep.config("partitions", static_cast<double>(kPartitions))
      .config("replication_factor", 3)
      .config("workers", args.workers)
      .config("accounts_per_partition", args.accounts)
      .config("opening_balance", static_cast<double>(kOpeningBalance))
      .config("network", "cluster")
      .config("warmup_seconds", args.warmup_seconds)
      .config("measure_seconds", args.measure_seconds);

  std::printf("%10s %12s %10s %10s %12s\n", "cross %", "goodput/s", "p50 ms",
              "p99 ms", "conserved");

  bool ok = true;
  double goodput_0 = 0, goodput_100 = 0;
  for (int cross_pct : {0, 25, 50, 75, 100}) {
    const RunResult r =
        run(cross_pct, args, 1200 + static_cast<std::uint64_t>(cross_pct));
    std::printf("%10d %12.0f %10.2f %10.2f %12s\n", cross_pct, r.goodput_ops,
                r.p50_ms, r.p99_ms, r.conserved ? "yes" : "NO");
    rep.row("cross" + std::to_string(cross_pct))
        .metric("cross_pct", cross_pct)
        .metric("goodput_ops", r.goodput_ops)
        .metric("completed", static_cast<double>(r.completed))
        .metric("conserved", r.conserved ? 1 : 0)
        .latency(r.latency);
    ok = ok && r.conserved && r.completed > 0;
    if (cross_pct == 0) goodput_0 = r.goodput_ops;
    if (cross_pct == 100) goodput_100 = r.goodput_ops;
  }
  rep.row("summary")
      .metric("goodput_single_partition_ops", goodput_0)
      .metric("goodput_all_cross_ops", goodput_100)
      .metric("atomicity_tax",
              goodput_0 > 0 ? goodput_100 / goodput_0 : 0);
  std::printf("atomicity tax: goodput(100%% cross) / goodput(0%% cross) = "
              "%.3f\n",
              goodput_0 > 0 ? goodput_100 / goodput_0 : 0);

  const bool wrote = rep.write();
  return ok && wrote ? 0 : 1;
}
