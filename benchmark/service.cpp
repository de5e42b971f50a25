#include "service.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "codec/codec.hpp"
#include "common/check.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/partitioning.hpp"
#include "mrpstore/store.hpp"
#include "util.hpp"
#include "workload/distributions.hpp"

namespace bench {

namespace coord = mrp::coord;
namespace multiring = mrp::multiring;
namespace runtime = mrp::runtime;
namespace smr = mrp::smr;
using mrp::kMillisecond;

// --- BenchReplica ----------------------------------------------------------

BenchReplica::BenchReplica(runtime::Runtime& rt, coord::Registry* registry,
                           multiring::NodeConfig config,
                           smr::StateMachineFactory factory,
                           const Service& service, Tracer* tracer,
                           ReplicaTrace* trace)
    : ReplicaNode(rt, registry, std::move(config), std::move(factory),
                  smr::ReplicaOptions{}),
      service_(service),
      tracer_(tracer),
      trace_(trace) {
  if (tracer_ != nullptr) {
    set_delivery_observer(
        [this](GroupId g, InstanceId i, const mrp::Payload&) {
          Tracer::on_delivery(*trace_, g, i);
        });
  }
}

Bytes BenchReplica::apply_command(GroupId group, const smr::Command& c) {
  if (tracer_ == nullptr) return ReplicaNode::apply_command(group, c);
  const std::int64_t start = mono_ns();
  Bytes out = ReplicaNode::apply_command(group, c);
  const std::int64_t end = mono_ns();
  tracer_->on_execute(*trace_, service_.op_class(c.op), c.session, c.seq,
                      start, end);
  return out;
}

// --- Service ---------------------------------------------------------------

bool Service::check_final(runtime::ThreadCluster& /*cluster*/,
                          const std::vector<ProcessId>& /*alive*/,
                          bool /*complete*/, std::string* /*why*/) {
  return true;
}

void Service::add_replica(runtime::ThreadCluster& cluster,
                          coord::Registry& registry, ProcessId pid,
                          const multiring::NodeConfig& config,
                          smr::StateMachineFactory factory, Tracer* tracer) {
  ReplicaTrace* trace = tracer != nullptr ? tracer->add_replica(pid) : nullptr;
  cluster.add_local(pid, [this, &registry, config, factory, tracer,
                          trace](runtime::Runtime& rt) {
    return std::make_unique<BenchReplica>(rt, &registry, config, factory,
                                          *this, tracer, trace);
  });
  replicas_.push_back(pid);
}

namespace {

/// The paper's local configuration (as in fig4_ycsb): M = 1, Delta = 5 ms,
/// lambda = 9000.
multiring::RingSub paper_ring(GroupId g) {
  multiring::RingSub sub{g, {}, true};
  sub.params.skip_interval = 5 * kMillisecond;
  sub.params.lambda = 9000;
  return sub;
}

coord::RingConfig full_ring(GroupId g, const std::vector<ProcessId>& members) {
  coord::RingConfig cfg;
  cfg.ring = g;
  cfg.order = members;
  cfg.acceptors.insert(members.begin(), members.end());
  return cfg;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- ring_echo ---------------------------------------------------------------

/// No-op service: acknowledges every command with its sequence count.
class EchoSm final : public smr::StateMachine {
 public:
  Bytes apply(GroupId, const Bytes&) override {
    ++applied_;
    return mrp::to_bytes(std::to_string(applied_));
  }
  Bytes snapshot() const override {
    return mrp::to_bytes(std::to_string(applied_));
  }
  void restore(const Bytes& s) override {
    applied_ = std::stoull(mrp::to_string(s));
  }
  std::uint64_t applied() const { return applied_; }

 private:
  std::uint64_t applied_ = 0;
};

/// ring_echo runs fig11's ring: three replicas, all acceptors. The failover
/// variant runs fig13's ring — order {1,2,3,4}, acceptors {1,2,3}, standby
/// {4}, auto-heal after a 300 ms grace — stops replica 2 at the end of the
/// open window, and addresses the replicas that stay up.
class EchoService final : public Service {
 public:
  explicit EchoService(bool failover) : failover_(failover) {}

  void deploy(runtime::ThreadCluster& cluster, coord::Registry& registry,
              Tracer* tracer) override {
    coord::RingConfig cfg = full_ring(kRing, {1, 2, 3});
    multiring::RingSub sub{kRing, {}, true};
    if (failover_) {
      cfg.order = {1, 2, 3, 4};
      cfg.standbys = {4};
      cfg.fd.auto_heal = true;
      cfg.fd.suspect_grace = 300 * kMillisecond;
      // The standby's catch-up drains the survivors' logs in chunks of this
      // many instances. At the default (20,000) a chunk of this workload's
      // batched instances exceeds the transport's 64 MiB frame bound and
      // aborts the process.
      sub.params.max_retransmit_instances = 1000;
    }
    registry.create_ring(cfg);
    multiring::NodeConfig node_cfg;
    node_cfg.rings.push_back(sub);
    for (ProcessId r : cfg.order) {
      add_replica(cluster, registry, r, node_cfg,
                  smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
                    return std::make_unique<EchoSm>();
                  }),
                  tracer);
    }
    groups_ = {kRing};
  }

  ProcessId victim() const override { return failover_ ? 2 : mrp::kNoProcess; }

  smr::Request next(mrp::Rng& rng) override {
    Bytes op(kCommandBytes, 0xab);
    const std::uint64_t n = counter_.fetch_add(1);
    const std::uint64_t salt = rng.next();
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&n), 8, op.begin());
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&salt), 8,
                op.begin() + 8);
    return smr::Request::single(
        kRing, failover_ ? std::vector<ProcessId>{1, 3, 4}
                         : std::vector<ProcessId>{1, 2, 3},
        std::move(op));
  }

  bool check_reply(const Bytes& /*op*/, const Bytes& result) override {
    // The reply is the executing replica's command count: a positive
    // decimal number.
    if (result.empty() || result.size() > 20) return false;
    return std::all_of(result.begin(), result.end(),
                       [](std::uint8_t c) { return c >= '0' && c <= '9'; }) &&
           !(result.size() == 1 && result[0] == '0');
  }

  int op_class(const Bytes&) const override { return 0; }
  std::vector<std::string> op_class_names() const override {
    return {"echo.apply_us"};
  }
  std::uint64_t digest(smr::ReplicaNode& r) const override {
    return dynamic_cast<EchoSm&>(r.state_machine()).applied();
  }

 private:
  static constexpr GroupId kRing = 0;
  static constexpr std::size_t kCommandBytes = 128;
  bool failover_;
  std::atomic<std::uint64_t> counter_{0};
};

// --- kv_read / kv_write --------------------------------------------------------

/// MRP-Store with one partition ring plus the global ring on replicas
/// {100,101,102}; 16,384 preloaded records. Every value embeds its key
/// index and a version, and the rest of it is derived from both, so a read
/// can be checked against the set of values ever written for its key.
class KvService final : public Service {
 public:
  explicit KvService(bool write_heavy)
      : write_heavy_(write_heavy),
        value_bytes_(write_heavy ? 4096 : 1024),
        versions_(std::make_unique<std::atomic<std::uint32_t>[]>(kKeys)),
        zipf_(kKeys) {}

  void deploy(runtime::ThreadCluster& cluster, coord::Registry& registry,
              Tracer* tracer) override {
    const std::vector<ProcessId> reps = {100, 101, 102};
    mrp::mrpstore::StoreDeployment dep;
    dep.partition_groups = {kPartition};
    dep.global_group = kGlobal;
    dep.replicas = {reps};
    dep.partitioner = std::make_shared<mrp::mrpstore::HashPartitioner>(1);
    dep.schema_version = 1;
    const std::string schema = dep.schema().encode();
    registry.publish_schema(mrp::mrpstore::kStoreSchemaKey, schema);
    registry.create_ring(full_ring(kPartition, reps));
    registry.create_ring(full_ring(kGlobal, reps));

    multiring::NodeConfig node_cfg;
    node_cfg.merge_m = 1;
    node_cfg.rings = {paper_ring(kPartition), paper_ring(kGlobal)};
    const std::size_t value_bytes = value_bytes_;
    for (ProcessId r : reps) {
      add_replica(
          cluster, registry, r, node_cfg,
          smr::StateMachineFactory(
              [schema, value_bytes](runtime::Runtime&, ProcessId) {
                auto sm = std::make_unique<mrp::mrpstore::KvStateMachine>();
                sm->set_schema(mrp::mrpstore::PartitionSchema::decode(schema));
                for (std::uint32_t k = 0; k < kKeys; ++k) {
                  sm->preload(key_name(k), make_value(k, 0, value_bytes));
                }
                return sm;
              }),
          tracer);
    }
    groups_ = {kPartition, kGlobal};
    client_.emplace(dep);
  }

  smr::Request next(mrp::Rng& rng) override {
    const double u = rng.next_double();
    const auto k = static_cast<std::uint32_t>(zipf_.next(rng));
    // kv_read is YCSB-B (95% read, 5% update); kv_write is 90% update,
    // 9% read and 1% scan of up to 10 records on the global ring.
    const bool update = write_heavy_ ? u < 0.90 : u >= 0.95;
    const bool scan = write_heavy_ && u >= 0.99;
    if (scan) return client_->scan(key_name(k), "", kScanLimit);
    if (update) {
      const std::uint32_t v = versions_[k].fetch_add(1) + 1;
      return client_->update(key_name(k), make_value(k, v, value_bytes_));
    }
    return client_->read(key_name(k));
  }

  bool check_reply(const Bytes& op, const Bytes& result) override {
    mrp::codec::Reader r(op);
    const auto type = static_cast<mrp::mrpstore::OpType>(r.u8());
    const std::string_view key = r.str_view();
    const mrp::mrpstore::Result res = mrp::mrpstore::decode_result(result);
    if (res.status != mrp::mrpstore::Status::kOk) return false;
    switch (type) {
      case mrp::mrpstore::OpType::kRead:
        return valid_value(key, res.value);
      case mrp::mrpstore::OpType::kUpdate:
        return true;
      case mrp::mrpstore::OpType::kScan: {
        if (res.entries.empty() || res.entries.size() > kScanLimit) {
          return false;
        }
        std::string_view prev;
        for (const auto& [k, v] : res.entries) {
          if (k < key || (!prev.empty() && k <= prev)) return false;
          if (!valid_value(k, v)) return false;
          prev = k;
        }
        return true;
      }
      default:
        return false;
    }
  }

  int op_class(const Bytes& op) const override {
    switch (static_cast<mrp::mrpstore::OpType>(op.empty() ? 0 : op[0])) {
      case mrp::mrpstore::OpType::kRead:
        return 0;
      case mrp::mrpstore::OpType::kUpdate:
        return 1;
      case mrp::mrpstore::OpType::kScan:
        return 2;
      default:
        return -1;
    }
  }
  std::vector<std::string> op_class_names() const override {
    return {"mrpstore.read_us", "mrpstore.update_us", "mrpstore.scan_us"};
  }
  std::uint64_t digest(smr::ReplicaNode& r) const override {
    return dynamic_cast<mrp::mrpstore::KvStateMachine&>(r.state_machine())
        .digest();
  }

 private:
  static constexpr GroupId kPartition = 0;
  static constexpr GroupId kGlobal = 1;
  static constexpr std::uint32_t kKeys = 16384;
  static constexpr std::uint32_t kScanLimit = 10;

  static std::string key_name(std::uint32_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "user%05u", k);
    return buf;
  }

  static std::uint8_t filler(std::uint64_t h, std::size_t i) {
    return static_cast<std::uint8_t>((h >> ((i & 7) * 8)) ^ (i >> 3));
  }

  /// [u32 key index][u32 version][filler derived from both].
  static Bytes make_value(std::uint32_t k, std::uint32_t v, std::size_t n) {
    Bytes out(n);
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&k), 4, out.begin());
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&v), 4, out.begin() + 4);
    const std::uint64_t h = splitmix((std::uint64_t{k} << 32) | v);
    for (std::size_t i = 8; i < n; ++i) out[i] = filler(h, i);
    return out;
  }

  bool valid_value(std::string_view key, const Bytes& value) const {
    if (value.size() != value_bytes_ || key.size() != 9 ||
        key.substr(0, 4) != "user") {
      return false;
    }
    std::uint32_t k = 0, v = 0;
    std::copy_n(value.begin(), 4, reinterpret_cast<std::uint8_t*>(&k));
    std::copy_n(value.begin() + 4, 4, reinterpret_cast<std::uint8_t*>(&v));
    if (k >= kKeys || key_name(k) != key) return false;
    // The version must have been issued (0 = preloaded).
    if (v > versions_[k].load()) return false;
    const std::uint64_t h = splitmix((std::uint64_t{k} << 32) | v);
    for (std::size_t i = 8; i < value.size(); ++i) {
      if (value[i] != filler(h, i)) return false;
    }
    return true;
  }

  bool write_heavy_;
  std::size_t value_bytes_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> versions_;
  mrp::workload::ScrambledZipfianGenerator zipf_;
  std::optional<mrp::mrpstore::StoreClient> client_;
};

// --- dlog_append ---------------------------------------------------------------

/// dLog: log rings 50 and 51 plus the common ring 52 on servers
/// {200,201,202}. 256 B appends alternate between the logs; 10% are
/// multi-appends to both, which ride the common ring.
class DlogService final : public Service {
 public:
  void deploy(runtime::ThreadCluster& cluster, coord::Registry& registry,
              Tracer* tracer) override {
    mrp::dlog::DLogDeployment dep;
    dep.servers = {200, 201, 202};
    dep.log_groups = {50, 51};
    dep.common_group = 52;
    dep.num_logs = 2;
    multiring::NodeConfig node_cfg;
    node_cfg.merge_m = 1;
    for (GroupId g : {50, 51, 52}) {
      registry.create_ring(full_ring(g, dep.servers));
      node_cfg.rings.push_back(paper_ring(g));
      groups_.push_back(g);
    }
    for (ProcessId s : dep.servers) {
      add_replica(cluster, registry, s, node_cfg,
                  smr::StateMachineFactory([](runtime::Runtime& rt,
                                              ProcessId self) {
                    return std::make_unique<mrp::dlog::LogStateMachine>(
                        rt, self, std::vector<mrp::dlog::LogId>{0, 1},
                        mrp::dlog::LogStateMachineOptions{});
                  }),
                  tracer);
    }
    client_.emplace(dep);
  }

  smr::Request next(mrp::Rng& rng) override {
    const std::uint64_t n = counter_.fetch_add(1);
    Bytes data(kAppendBytes, 0x5a);
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&n), 8, data.begin());
    if (rng.next_double() < 0.10) {
      return client_->multi_append({0, 1}, std::move(data));
    }
    return client_->append(static_cast<mrp::dlog::LogId>(n % 2),
                           std::move(data));
  }

  bool check_reply(const Bytes& op, const Bytes& result) override {
    const mrp::dlog::Op o = mrp::dlog::decode_op(op);
    const mrp::dlog::Result res = mrp::dlog::decode_result(result);
    if (res.status != mrp::dlog::Status::kOk ||
        res.positions.size() != o.logs.size()) {
      return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < o.logs.size(); ++i) {
      if (res.positions[i].first != o.logs[i]) return false;
      acked_[o.logs[i]].push_back(res.positions[i].second);
    }
    return true;
  }

  int op_class(const Bytes& op) const override {
    switch (static_cast<mrp::dlog::OpType>(op.empty() ? 0 : op[0])) {
      case mrp::dlog::OpType::kAppend:
        return 0;
      case mrp::dlog::OpType::kMultiAppend:
        return 1;
      default:
        return -1;
    }
  }
  std::vector<std::string> op_class_names() const override {
    return {"dlog.append_us", "dlog.multi_append_us"};
  }
  std::uint64_t digest(smr::ReplicaNode& r) const override {
    return dynamic_cast<mrp::dlog::LogStateMachine&>(r.state_machine())
        .digest();
  }

  /// Acknowledged positions are unique per log and below the log's end at
  /// every server; when every append was answered they are gap-free.
  bool check_final(runtime::ThreadCluster& cluster,
                   const std::vector<ProcessId>& alive, bool complete,
                   std::string* why) override {
    std::lock_guard<std::mutex> lk(mu_);
    for (mrp::dlog::LogId log : {0u, 1u}) {
      std::uint64_t next = 0;
      cluster.call(alive.front(), [&](runtime::Node* n) {
        auto& rep = dynamic_cast<smr::ReplicaNode&>(*n);
        next = dynamic_cast<mrp::dlog::LogStateMachine&>(rep.state_machine())
                   .next_position(log);
      });
      std::vector<std::uint64_t>& acks = acked_[log];
      std::sort(acks.begin(), acks.end());
      if (std::adjacent_find(acks.begin(), acks.end()) != acks.end()) {
        *why = "dlog: a position was acknowledged twice in log " +
               std::to_string(log);
        return false;
      }
      if (!acks.empty() && acks.back() >= next) {
        *why = "dlog: acknowledged position beyond the log end";
        return false;
      }
      if (complete && acks.size() != next) {
        *why = "dlog: log " + std::to_string(log) + " has " +
               std::to_string(next) + " entries but " +
               std::to_string(acks.size()) + " acknowledged appends";
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr std::size_t kAppendBytes = 256;
  std::atomic<std::uint64_t> counter_{0};
  std::optional<mrp::dlog::DLogClient> client_;
  std::mutex mu_;
  std::map<mrp::dlog::LogId, std::vector<std::uint64_t>> acked_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ring_echo", "kv_read",
                                                 "kv_write", "dlog_append"};
  return names;
}

std::unique_ptr<Service> make_service(const std::string& workload) {
  if (workload == "ring_echo") return std::make_unique<EchoService>(false);
  if (workload == "ring_failover") return std::make_unique<EchoService>(true);
  if (workload == "kv_read") return std::make_unique<KvService>(false);
  if (workload == "kv_write") return std::make_unique<KvService>(true);
  if (workload == "dlog_append") return std::make_unique<DlogService>();
  return nullptr;
}

double open_rate(const std::string& workload) {
  return workload.rfind("ring_", 0) == 0 ? 100'000.0 : 3'000.0;
}

}  // namespace bench
