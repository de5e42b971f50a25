// Example: a cross-partition "bank" on MRP-Store.
//
// Accounts are range-partitioned across three replicated partitions.
// Tellers (client workers) run atomic balance transfers — most of them
// *across* partitions, i.e. genuine multi-group commands: one copy per
// owning partition's ring, gathered at each replica and executed exactly
// once at its merged commit position. An auditor repeatedly sums all
// accounts through a global-ring scan.
//
// Two invariants demonstrate the atomicity:
//   * every audit's total stays within ±(in-flight tellers) of the initial
//     capital — the two halves of a transfer commit at each partition's own
//     merged position, so a scan can catch at most one half of each
//     in-flight transfer, never more,
//   * once the tellers stop and the pipeline drains, every replica of every
//     partition accounts for exactly the initial capital — no transfer half
//     lost, none applied twice, balances identical across each partition's
//     replicas.
//
//   ./example_bank_kv
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

using namespace mrp;

namespace {

constexpr int kAccounts = 60;
constexpr std::int64_t kInitialBalance = 100;
constexpr std::int64_t kCapital = kAccounts * kInitialBalance;
constexpr std::uint32_t kTellers = 8;

std::string account_key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "acct%03d", i);
  return buf;
}

std::int64_t parse_balance(const Bytes& b) {
  return b.empty() ? 0 : std::stoll(to_string(b));
}

}  // namespace

int main() {
  sim::Env env(12);
  env.net().set_default_link({from_micros(50), 10e9});
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender));

  mrpstore::StoreOptions so;
  so.partitions = 3;
  so.replicas_per_partition = 3;
  so.global_ring = true;  // audits need cross-partition order
  so.partitioner = mrpstore::RangePartitioner({"acct020", "acct040"}).encode();
  so.ring_params.lambda = 3000;
  so.ring_params.skip_interval = 5 * kMillisecond;
  so.global_params = so.ring_params;
  auto dep = build_store(env, registry, so);
  mrpstore::StoreClient store(dep);

  // Seed the accounts identically at every replica of the owning partition.
  for (std::size_t p = 0; p < dep.replicas.size(); ++p) {
    for (ProcessId r : dep.replicas[p]) {
      auto* rep = env.process_as<smr::ReplicaNode>(r);
      auto& kv = dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine());
      for (int i = 0; i < kAccounts; ++i) {
        const std::string key = account_key(i);
        if (dep.partitioner->partition_for_key(key) == static_cast<int>(p)) {
          kv.preload(key, to_bytes(std::to_string(kInitialBalance)));
        }
      }
    }
  }

  // Tellers: atomic transfers between rotating account pairs. The stride 37
  // is coprime with kAccounts, so pairs sweep all combinations — with 20
  // accounts per partition most transfers cross a partition boundary.
  std::int64_t transfers_completed = 0;
  std::int64_t transfers_cross = 0;
  auto* tellers = env.spawn<smr::ClientNode>(
      900, smr::ClientNode::Options{kTellers, 2 * kSecond, 0},
      smr::ClientNode::NextFn([&store, n = 0](std::uint32_t) mutable
                                  -> std::optional<smr::Request> {
        const int from = n % kAccounts;
        int to = (n * 37 + 13) % kAccounts;
        if (to == from) to = (to + 1) % kAccounts;
        ++n;
        return store.transfer(account_key(from), account_key(to), 1);
      }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        if (mrpstore::StoreClient::merge_multi(c.results).status ==
            mrpstore::Status::kOk) {
          ++transfers_completed;
          if (c.results.size() > 1) ++transfers_cross;
        }
      }));

  // Auditor: global scans. Each partition executes the scan at its own
  // merged position, so an in-flight transfer can be caught half-done — the
  // total may drift from the capital by at most one amount per in-flight
  // teller, in either direction.
  int audits = 0, inconsistent = 0;
  auto* auditor = env.spawn<smr::ClientNode>(
      901, smr::ClientNode::Options{1, 2 * kSecond, 0},
      smr::ClientNode::NextFn([&store](std::uint32_t)
                                  -> std::optional<smr::Request> {
        return store.scan("acct", "accu", 0);
      }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        const auto merged = mrpstore::StoreClient::merge_scan(c.results);
        std::int64_t total = 0;
        for (const auto& [k, v] : merged.entries) total += parse_balance(v);
        ++audits;
        if (total < kCapital - static_cast<std::int64_t>(kTellers) ||
            total > kCapital + static_cast<std::int64_t>(kTellers)) {
          ++inconsistent;
        }
      }));

  env.sim().run_for(from_seconds(10));

  // Quiesce and drain: every issued transfer either completes on both
  // partitions or not at all; afterwards conservation must be exact.
  tellers->stop();
  auditor->stop();
  env.sim().run_for(from_seconds(5));

  bool conserved = true;
  for (std::size_t p = 0; p < dep.replicas.size(); ++p) {
    std::int64_t reference = -1;
    for (ProcessId r : dep.replicas[p]) {
      std::int64_t sum = 0;
      for (int i = 0; i < kAccounts; ++i) {
        const std::string key = account_key(i);
        if (dep.partitioner->partition_for_key(key) != static_cast<int>(p)) {
          continue;
        }
        const auto v = dep.replica_get(env, r, key);
        sum += v ? parse_balance(*v) : 0;
      }
      if (reference < 0) {
        reference = sum;
      } else if (sum != reference) {
        std::printf("FAIL: partition %zu replicas disagree (%lld vs %lld)\n",
                    p, static_cast<long long>(sum),
                    static_cast<long long>(reference));
        conserved = false;
      }
    }
    std::printf("partition %zu holds %lld\n", p,
                static_cast<long long>(reference));
  }
  std::int64_t total = 0;
  for (std::size_t p = 0; p < dep.replicas.size(); ++p) {
    for (int i = 0; i < kAccounts; ++i) {
      const std::string key = account_key(i);
      if (dep.partitioner->partition_for_key(key) != static_cast<int>(p)) {
        continue;
      }
      const auto v = dep.replica_get(env, dep.replicas[p][0], key);
      total += v ? parse_balance(*v) : 0;
    }
  }
  if (total != kCapital) {
    std::printf("FAIL: total %lld != capital %lld\n",
                static_cast<long long>(total),
                static_cast<long long>(kCapital));
    conserved = false;
  }

  std::printf("bank example: %lld transfers completed (%lld cross-partition), "
              "%d audits, %d out of bounds\n",
              static_cast<long long>(transfers_completed),
              static_cast<long long>(transfers_cross), audits, inconsistent);
  const bool ok = conserved && inconsistent == 0 && transfers_cross > 0;
  std::printf("%s\n", ok ? "PASS: capital conserved through cross-partition "
                           "transfers; every audit stayed in bounds"
                         : "FAIL: atomicity violated");
  return ok ? 0 : 1;
}
