// Figure 4 — YCSB comparison: Cassandra (stand-in), MRP-Store with
// independent rings, MRP-Store with a global ring, and MySQL (stand-in).
//
// 100 client threads, three partitions with replication factor three (MRP
// and Cassandra), scaled dataset preloaded before the run. Workloads A-F;
// read-modify-write (F) executes as a read followed by an update of the
// same key from the same session. Reported: throughput in ops/s per
// (system, workload), plus the workload-F latency split by operation type.
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/eventual_store.hpp"
#include "baselines/single_node_store.hpp"
#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace mrp;
using workload::YcsbOp;
using workload::YcsbOpType;

constexpr std::uint64_t kRecords = 8192;  // scaled dataset (1 KB values)
constexpr std::uint32_t kThreads = 100;
constexpr ProcessId kClientPid = 900;

/// Uniform interface over the four systems for the YCSB driver.
struct SystemAdapter {
  std::function<smr::Request(const YcsbOp&)> read;
  std::function<smr::Request(const YcsbOp&)> update;
  std::function<smr::Request(const YcsbOp&)> insert;
  std::function<smr::Request(const YcsbOp&)> scan;
};

struct RunResult {
  double ops_per_sec = 0;
  double read_ms = 0, update_ms = 0, rmw_ms = 0;
  Histogram latency;  // all completed ops
};

RunResult drive(sim::Env& env, const SystemAdapter& sys, char wl,
                std::uint64_t seed) {
  workload::YcsbSpec spec = workload::YcsbSpec::workload(wl);
  auto gen = std::make_shared<workload::YcsbGenerator>(spec, kRecords, seed);

  struct WorkerState {
    bool rmw_update_phase = false;
    std::string rmw_key;
    TimeNs rmw_started = 0;
    YcsbOpType last_type = YcsbOpType::kRead;
  };
  auto states = std::make_shared<std::vector<WorkerState>>(kThreads);
  auto ops_done = std::make_shared<std::uint64_t>(0);
  auto hist = std::make_shared<std::map<int, Histogram>>();  // by op type
  auto all = std::make_shared<Histogram>();  // every completed YCSB op

  auto next_fn = [gen, states, &sys](std::uint32_t w)
      -> std::optional<smr::Request> {
    WorkerState& ws = (*states)[w];
    if (ws.rmw_update_phase) {
      // Second half of a read-modify-write: update the key just read.
      YcsbOp up;
      up.key = ws.rmw_key;
      up.value.assign(1024, 0x77);
      ws.last_type = YcsbOpType::kReadModifyWrite;
      return sys.update(up);
    }
    const YcsbOp op = gen->next();
    ws.last_type = op.type;
    switch (op.type) {
      case YcsbOpType::kRead:
        return sys.read(op);
      case YcsbOpType::kUpdate:
        return sys.update(op);
      case YcsbOpType::kInsert:
        return sys.insert(op);
      case YcsbOpType::kScan:
        return sys.scan(op);
      case YcsbOpType::kReadModifyWrite: {
        ws.rmw_key = op.key;
        ws.rmw_started = 0;  // set on issue via completion bookkeeping
        YcsbOp rd;
        rd.key = op.key;
        return sys.read(rd);
      }
    }
    return std::nullopt;
  };

  auto done_fn = [states, ops_done, hist, all](const smr::Completion& c) {
    WorkerState& ws = (*states)[c.worker];
    switch (ws.last_type) {
      case YcsbOpType::kReadModifyWrite:
        if (!ws.rmw_update_phase) {
          // Finished the read half: remember when the whole RMW began.
          ws.rmw_update_phase = true;
          ws.rmw_started = c.issued_at;
          return;  // not a completed YCSB op yet
        }
        ws.rmw_update_phase = false;
        // The update half alone, and the whole read-modify-write.
        (*hist)[static_cast<int>(YcsbOpType::kUpdate)].record(c.latency);
        (*hist)[static_cast<int>(YcsbOpType::kReadModifyWrite)].record(
            c.issued_at + c.latency - ws.rmw_started);
        all->record(c.issued_at + c.latency - ws.rmw_started);
        break;
      default:
        (*hist)[static_cast<int>(ws.last_type)].record(c.latency);
        all->record(c.latency);
        break;
    }
    ++(*ops_done);
  };

  auto* client = env.spawn<smr::ClientNode>(
      kClientPid, smr::ClientNode::Options{kThreads, 2 * kSecond, 0},
      smr::ClientNode::NextFn(next_fn), smr::ClientNode::DoneFn(done_fn));
  (void)client;

  env.sim().run_for(from_seconds(1));  // warmup
  const std::uint64_t before = *ops_done;
  for (auto& [_, h] : *hist) h.clear();
  all->clear();
  const TimeNs measure = from_seconds(5);
  env.sim().run_for(measure);

  RunResult r;
  r.ops_per_sec = static_cast<double>(*ops_done - before) / to_seconds(measure);
  r.read_ms = (*hist)[static_cast<int>(YcsbOpType::kRead)].mean() / 1e6;
  r.update_ms = (*hist)[static_cast<int>(YcsbOpType::kUpdate)].mean() / 1e6;
  r.rmw_ms =
      (*hist)[static_cast<int>(YcsbOpType::kReadModifyWrite)].mean() / 1e6;
  r.latency = *all;
  return r;
}

// --- system setups ---

RunResult run_cassandra(char wl) {
  sim::Env env(41);
  bench::configure_cluster(env);
  baselines::EventualOptions opts;
  opts.partitions = 3;
  opts.replicas_per_partition = 3;
  opts.scan_entry_cost = from_micros(3.0);  // SSTable merge per entry
  auto dep = build_eventual_store(env, opts);
  for (auto& part : dep.replicas) {
    for (ProcessId r : part) {
      env.set_cpu(r, sim::CpuParams{from_micros(8.0), 1.2});
    }
  }
  auto client = std::make_shared<baselines::EventualClient>(dep);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::string key = workload::YcsbGenerator::key_of(i);
    const int p = dep.partitioner->partition_for_key(key);
    for (ProcessId r : dep.replicas[static_cast<std::size_t>(p)]) {
      env.process_as<baselines::EventualNode>(r)->preload(key,
                                                          Bytes(1024, 1));
    }
  }
  SystemAdapter sys;
  sys.read = [client](const YcsbOp& op) { return client->read(op.key); };
  sys.update = [client](const YcsbOp& op) {
    return client->update(op.key, op.value);
  };
  sys.insert = [client](const YcsbOp& op) {
    return client->insert(op.key, op.value);
  };
  sys.scan = [client](const YcsbOp& op) {
    return client->scan(op.key, "", op.scan_len);
  };
  return drive(env, sys, wl, 1000 + static_cast<std::uint64_t>(wl));
}

RunResult run_mrpstore(char wl, bool global_ring) {
  sim::Env env(42);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);
  mrpstore::StoreOptions so;
  so.partitions = 3;
  so.replicas_per_partition = 3;
  so.global_ring = global_ring;
  // The paper's local configuration: M=1, Delta=5 ms, lambda=9000; clients
  // batch small commands per partition up to 32 KB.
  so.ring_params.lambda = 9000;
  so.ring_params.skip_interval = 5 * kMillisecond;
  so.global_params = so.ring_params;
  so.replica_options.batch_bytes = 32 * 1024;
  so.replica_options.batch_delay = kMillisecond;
  auto dep = build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) env.set_cpu(r, bench::server_cpu());
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::string key = workload::YcsbGenerator::key_of(i);
    const int p = dep.partitioner->partition_for_key(key);
    for (ProcessId r : dep.replicas[static_cast<std::size_t>(p)]) {
      auto* rep = env.process_as<smr::ReplicaNode>(r);
      dynamic_cast<mrpstore::KvStateMachine&>(rep->state_machine())
          .preload(key, Bytes(1024, 1));
    }
  }
  auto client = std::make_shared<mrpstore::StoreClient>(dep);
  SystemAdapter sys;
  sys.read = [client](const YcsbOp& op) { return client->read(op.key); };
  sys.update = [client](const YcsbOp& op) {
    return client->update(op.key, op.value);
  };
  sys.insert = [client](const YcsbOp& op) {
    return client->insert(op.key, op.value);
  };
  sys.scan = [client](const YcsbOp& op) {
    return client->scan(op.key, "", op.scan_len);
  };
  RunResult r =
      drive(env, sys, wl, 2000 + static_cast<std::uint64_t>(wl));
  return r;
}

RunResult run_mysql(char wl) {
  sim::Env env(43);
  bench::configure_cluster(env);
  auto* store = env.spawn<baselines::SingleNodeStore>(50);
  // Single server; per-request cost stands in for the SQL stack.
  env.set_cpu(50, sim::CpuParams{from_micros(10.0), 1.2});
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    store->preload(workload::YcsbGenerator::key_of(i), Bytes(1024, 1));
  }
  SystemAdapter sys;
  sys.read = [store](const YcsbOp& op) { return store->read(op.key); };
  sys.update = [store](const YcsbOp& op) {
    return store->update(op.key, op.value);
  };
  sys.insert = [store](const YcsbOp& op) {
    return store->insert(op.key, op.value);
  };
  sys.scan = [store](const YcsbOp& op) {
    return store->scan(op.key, "", op.scan_len);
  };
  return drive(env, sys, wl, 3000 + static_cast<std::uint64_t>(wl));
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 4 (top): YCSB throughput, 100 client threads, 3 partitions, "
      "RF=3 (ops/s)");
  std::printf("%10s %12s %18s %14s %12s\n", "workload", "cassandra",
              "mrp_indep_rings", "mrp_global", "mysql");

  bench::BenchReporter rep("fig4_ycsb");
  rep.config("client_threads", kThreads)
      .config("records", static_cast<double>(kRecords))
      .config("partitions", 3)
      .config("replication_factor", 3)
      .config("value_bytes", 1024)
      .config("network", "cluster");
  const auto report = [&rep](const std::string& system, char wl,
                             const RunResult& r) {
    rep.row(system + "/" + std::string(1, wl))
        .tag("system", system)
        .tag("workload", std::string(1, wl))
        .metric("throughput_ops", r.ops_per_sec)
        .metric("read_mean_ms", r.read_ms)
        .metric("update_mean_ms", r.update_ms)
        .metric("rmw_mean_ms", r.rmw_ms)
        .latency(r.latency);
  };

  RunResult f_cass, f_indep, f_global, f_mysql;
  for (char wl : {'A', 'B', 'C', 'D', 'E', 'F'}) {
    const RunResult cass = run_cassandra(wl);
    const RunResult indep = run_mrpstore(wl, false);
    const RunResult glob = run_mrpstore(wl, true);
    const RunResult my = run_mysql(wl);
    std::printf("%10c %12.0f %18.0f %14.0f %12.0f\n", wl, cass.ops_per_sec,
                indep.ops_per_sec, glob.ops_per_sec, my.ops_per_sec);
    report("cassandra", wl, cass);
    report("mrp_indep_rings", wl, indep);
    report("mrp_global", wl, glob);
    report("mysql", wl, my);
    if (wl == 'F') {
      f_cass = cass;
      f_indep = indep;
      f_global = glob;
      f_mysql = my;
    }
  }

  bench::print_header(
      "Figure 4 (bottom): workload F latency by operation (ms)");
  std::printf("%10s %12s %18s %14s %12s\n", "op", "cassandra",
              "mrp_indep_rings", "mrp_global", "mysql");
  std::printf("%10s %12.2f %18.2f %14.2f %12.2f\n", "read", f_cass.read_ms,
              f_indep.read_ms, f_global.read_ms, f_mysql.read_ms);
  std::printf("%10s %12.2f %18.2f %14.2f %12.2f\n", "update",
              f_cass.update_ms, f_indep.update_ms, f_global.update_ms,
              f_mysql.update_ms);
  std::printf("%10s %12.2f %18.2f %14.2f %12.2f\n", "rmw", f_cass.rmw_ms,
              f_indep.rmw_ms, f_global.rmw_ms, f_mysql.rmw_ms);
  return rep.write() ? 0 : 1;
}
