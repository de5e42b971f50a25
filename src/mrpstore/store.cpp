#include "mrpstore/store.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mrpstore/elastic.hpp"

namespace mrp::mrpstore {

Bytes encode_op(const Op& op) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(op.type));
  w.str(op.key);
  switch (op.type) {
    case OpType::kRead:
    case OpType::kDelete:
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      w.bytes(op.value);
      break;
    case OpType::kScan:
      w.str(op.key_hi);
      w.u32(op.limit);
      w.u64(op.schema_version);
      break;
    case OpType::kSplit:
      w.str(op.schema);
      w.u32(static_cast<std::uint32_t>(op.split_group));
      break;
    case OpType::kMultiGet:
      w.u64(op.schema_version);
      w.varint(op.keys.size());
      for (const std::string& k : op.keys) w.str(k);
      break;
    case OpType::kMultiPut:
      w.u64(op.schema_version);
      w.varint(op.entries.size());
      for (const auto& [k, v] : op.entries) {
        w.str(k);
        w.bytes(v);
      }
      break;
    case OpType::kTransfer:
      w.u64(op.schema_version);
      w.str(op.key_hi);  // to (op.key = from, written above)
      w.i64(op.amount);
      break;
  }
  return w.take();
}

Op decode_op(const Bytes& data) {
  codec::Reader r(data);
  Op op;
  op.type = static_cast<OpType>(r.u8());
  op.key = r.str();
  switch (op.type) {
    case OpType::kRead:
    case OpType::kDelete:
      break;
    case OpType::kUpdate:
    case OpType::kInsert:
      op.value = r.bytes();
      break;
    case OpType::kScan:
      op.key_hi = r.str();
      op.limit = r.u32();
      op.schema_version = r.u64();
      break;
    case OpType::kSplit:
      op.schema = r.str();
      op.split_group = static_cast<GroupId>(r.u32());
      break;
    case OpType::kMultiGet: {
      op.schema_version = r.u64();
      const std::uint64_t n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) op.keys.push_back(r.str());
      break;
    }
    case OpType::kMultiPut: {
      op.schema_version = r.u64();
      const std::uint64_t n = r.varint();
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string k = r.str();
        Bytes v = r.bytes();
        op.entries.emplace_back(std::move(k), std::move(v));
      }
      break;
    }
    case OpType::kTransfer:
      op.schema_version = r.u64();
      op.key_hi = r.str();
      op.amount = r.i64();
      break;
  }
  r.expect_done();
  return op;
}

Bytes encode_result(const Result& res) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(res.status));
  w.bytes(res.value);
  w.varint(res.entries.size());
  for (const auto& [k, v] : res.entries) {
    w.str(k);
    w.bytes(v);
  }
  return w.take();
}

Result decode_result(const Bytes& data) {
  codec::Reader r(data);
  Result res;
  res.status = static_cast<Status>(r.u8());
  res.value = r.bytes();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    Bytes v = r.bytes();
    res.entries.emplace_back(std::move(k), std::move(v));
  }
  r.expect_done();
  return res;
}

Bytes KvStateMachine::apply(GroupId group, const Bytes& encoded) {
  // Decoded in place (same layout as decode_op): key and value are views
  // into the multicast payload, which outlives this call; only state the
  // machine retains (inserted/updated values) is copied.
  codec::Reader r(encoded);
  const auto type = static_cast<OpType>(r.u8());
  const std::string_view key = r.str_view();

  // Stale-routing detection: single-key operations arriving on a partition
  // group that no longer owns the key under the replica's *ordered* schema
  // are rejected, telling the client to refresh and re-route. The schema
  // only changes through ordered kSplit commands, so every replica of the
  // partition flips at the same point of the delivery sequence.
  if (schema_.version > 0 && group != schema_.global_group &&
      (type == OpType::kRead || type == OpType::kUpdate ||
       type == OpType::kInsert || type == OpType::kDelete) &&
      schema_.group_for_key(key) != group) {
    Result stale;
    stale.status = Status::kStaleRouting;
    return encode_result(stale);
  }

  Result res;
  switch (type) {
    case OpType::kRead: {
      auto it = data_.find(key);
      if (it == data_.end()) {
        res.status = Status::kNotFound;
      } else {
        res.value = it->second;
      }
      break;
    }
    case OpType::kUpdate: {
      const auto value = r.bytes_view();
      auto it = data_.find(key);
      if (it == data_.end()) {
        res.status = Status::kNotFound;  // update only if existent (Table 1)
      } else {
        it->second.assign(value.begin(), value.end());
      }
      break;
    }
    case OpType::kInsert: {
      const auto value = r.bytes_view();
      auto it = data_.find(key);
      if (it == data_.end()) {
        data_.emplace(std::string(key), Bytes(value.begin(), value.end()));
      } else {
        it->second.assign(value.begin(), value.end());
      }
      break;
    }
    case OpType::kDelete: {
      auto it = data_.find(key);
      if (it == data_.end()) {
        res.status = Status::kNotFound;
      } else {
        data_.erase(it);
      }
      break;
    }
    case OpType::kScan: {
      const std::string_view key_hi = r.str_view();
      const std::uint32_t raw_limit = r.u32();
      const std::uint64_t client_version = r.u64();
      // A versioned scan routed with an older schema fanned out before a
      // split: parts of its range may have moved to a partition it never
      // addressed. Reject it (deterministically — the replica's version
      // only changes through ordered kSplit commands) so the client
      // refreshes instead of silently missing the moved range.
      if (client_version > 0 && schema_.version > client_version) {
        res.status = Status::kStaleRouting;
        break;
      }
      const std::uint32_t limit = raw_limit == 0 ? ~0u : raw_limit;
      auto it = data_.lower_bound(key);
      while (it != data_.end() && res.entries.size() < limit) {
        if (!key_hi.empty() && it->first >= key_hi) break;
        res.entries.emplace_back(it->first, it->second);
        ++it;
      }
      break;
    }
    case OpType::kSplit: {
      const std::string_view enc = r.str_view();
      const auto target = static_cast<GroupId>(r.u32());
      r.expect_done();
      return apply_split(group, enc, target);
    }
    // Cross-partition atomic operations: the same command is delivered (via
    // multi-group multicast) on every owning partition's ring; this replica
    // applies exactly the sub-operations on keys its delivery group owns
    // under the ordered schema. A replica whose schema is newer than the
    // client's routing version rejects the whole command — deterministic,
    // because the version only changes through ordered kSplit commands —
    // so a stale client can never commit half a transaction.
    case OpType::kMultiGet: {
      const std::uint64_t client_version = r.u64();
      const std::uint64_t n = r.varint();
      std::vector<std::string_view> keys;
      keys.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) keys.push_back(r.str_view());
      if (client_version > 0 && schema_.version > client_version) {
        res.status = Status::kStaleRouting;
        break;
      }
      for (const std::string_view k : keys) {
        if (schema_.version > 0 && schema_.group_for_key(k) != group) continue;
        auto it = data_.find(k);
        if (it != data_.end()) res.entries.emplace_back(std::string(k), it->second);
      }
      break;
    }
    case OpType::kMultiPut: {
      const std::uint64_t client_version = r.u64();
      const std::uint64_t n = r.varint();
      std::vector<std::pair<std::string_view, std::span<const std::uint8_t>>>
          entries;
      entries.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string_view k = r.str_view();
        entries.emplace_back(k, r.bytes_view());
      }
      if (client_version > 0 && schema_.version > client_version) {
        res.status = Status::kStaleRouting;
        break;
      }
      std::uint64_t applied = 0;
      for (const auto& [k, v] : entries) {
        if (schema_.version > 0 && schema_.group_for_key(k) != group) continue;
        data_[std::string(k)] = Bytes(v.begin(), v.end());
        ++applied;
      }
      res.value = to_bytes(std::to_string(applied));
      break;
    }
    case OpType::kTransfer: {
      const std::uint64_t client_version = r.u64();
      const std::string_view to = r.str_view();  // `key` above = from
      const std::int64_t amount = r.i64();
      if (client_version > 0 && schema_.version > client_version) {
        res.status = Status::kStaleRouting;
        break;
      }
      // Unconditional debit/credit on decimal-string balances (missing
      // accounts start at 0): each half is deterministic on its own, so the
      // two partitions never need to agree on anything beyond delivery.
      const auto adjust = [&](std::string_view k, std::int64_t delta) {
        if (schema_.version > 0 && schema_.group_for_key(k) != group) return;
        auto it = data_.find(k);
        std::int64_t balance =
            it == data_.end() || it->second.empty()
                ? 0
                : std::stoll(mrp::to_string(it->second));
        balance += delta;
        Bytes encoded_balance = to_bytes(std::to_string(balance));
        if (it == data_.end()) {
          data_.emplace(std::string(k), encoded_balance);
        } else {
          it->second = encoded_balance;
        }
        res.entries.emplace_back(std::string(k), std::move(encoded_balance));
      };
      adjust(key, -amount);
      adjust(to, amount);
      break;
    }
  }
  r.expect_done();
  return encode_result(res);
}

Bytes KvStateMachine::apply_split(GroupId group, std::string_view encoded_schema,
                                  GroupId split_group) {
  Result res;
  PartitionSchema next = PartitionSchema::decode(std::string(encoded_schema));
  if (next.version <= schema_.version) {
    // Deterministic replay / duplicate: already adopted.
    res.value = to_bytes("0");
    return encode_result(res);
  }

  // Extract the entries that leave this partition under the successor
  // schema. std::map iteration order makes the handoff encoding identical
  // on every replica of the partition.
  std::vector<std::map<std::string, Bytes, std::less<>>::iterator> movers;
  for (auto it = data_.begin(); it != data_.end(); ++it) {
    const GroupId owner = next.group_for_key(it->first);
    if (owner == group) continue;
    MRP_CHECK_MSG(owner == split_group,
                  "split may only move keys into the new partition");
    movers.push_back(it);
  }
  codec::Writer w;
  w.u64(next.version);
  w.u32(static_cast<std::uint32_t>(group));
  w.str(std::string(encoded_schema));
  w.varint(movers.size());
  for (auto it : movers) {
    w.str(it->first);
    w.bytes(it->second);
  }
  for (auto it : movers) data_.erase(it);

  HandoffPiece& piece = handoffs_[next.version];
  piece.target = split_group;
  piece.source = group;
  piece.state = w.take();
  piece.tuple.clear();  // the replica node stamps the merge position
  schema_ = std::move(next);

  res.value = to_bytes(std::to_string(movers.size()));
  return encode_result(res);
}

void KvStateMachine::set_schema(PartitionSchema schema) {
  schema_ = std::move(schema);
}

const KvStateMachine::HandoffPiece* KvStateMachine::handoff(
    std::uint64_t version) const {
  auto it = handoffs_.find(version);
  return it == handoffs_.end() ? nullptr : &it->second;
}

void KvStateMachine::set_handoff_tuple(std::uint64_t version,
                                       storage::CheckpointTuple t) {
  auto it = handoffs_.find(version);
  MRP_CHECK_MSG(it != handoffs_.end(), "no handoff for this version");
  it->second.tuple = std::move(t);
}

void KvStateMachine::install_handoff(const Bytes& piece) {
  codec::Reader r(piece);
  const std::uint64_t version = r.u64();
  r.u32();  // source group (informational)
  const std::string enc = r.str();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    Bytes v = r.bytes();
    data_[std::move(k)] = std::move(v);
  }
  r.expect_done();
  if (version > schema_.version) schema_ = PartitionSchema::decode(enc);
}

Bytes KvStateMachine::snapshot() const {
  codec::Writer w;
  w.varint(data_.size());
  for (const auto& [k, v] : data_) {
    w.str(k);
    w.bytes(v);
  }
  // Routing and state-transfer state are replicated state too: a recovered
  // replica must validate routes and serve handoffs exactly like its peers.
  w.str(schema_.version > 0 ? schema_.encode() : std::string{});
  w.varint(handoffs_.size());
  for (const auto& [version, piece] : handoffs_) {
    w.u64(version);
    w.u32(static_cast<std::uint32_t>(piece.target));
    w.u32(static_cast<std::uint32_t>(piece.source));
    w.bytes(piece.state);
    w.varint(piece.tuple.size());
    for (const auto& [g, inst] : piece.tuple) {
      w.u32(static_cast<std::uint32_t>(g));
      w.u64(inst);
    }
  }
  return w.take();
}

void KvStateMachine::restore(const Bytes& snapshot) {
  codec::Reader r(snapshot);
  data_.clear();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.str();
    Bytes v = r.bytes();
    data_.emplace(std::move(k), std::move(v));
  }
  const std::string enc = r.str();
  schema_ = enc.empty() ? PartitionSchema{} : PartitionSchema::decode(enc);
  handoffs_.clear();
  const std::uint64_t hn = r.varint();
  for (std::uint64_t i = 0; i < hn; ++i) {
    const std::uint64_t version = r.u64();
    HandoffPiece& piece = handoffs_[version];
    piece.target = static_cast<GroupId>(r.u32());
    piece.source = static_cast<GroupId>(r.u32());
    piece.state = r.bytes();
    const std::uint64_t tn = r.varint();
    for (std::uint64_t t = 0; t < tn; ++t) {
      const auto g = static_cast<GroupId>(r.u32());
      piece.tuple[g] = r.u64();
    }
  }
  r.expect_done();
}

std::optional<Bytes> KvStateMachine::get(const std::string& key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void KvStateMachine::preload(std::string key, Bytes value) {
  data_[std::move(key)] = std::move(value);
}

std::uint64_t KvStateMachine::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [k, v] : data_) {
    mix(k.data(), k.size());
    mix(v.data(), v.size());
  }
  // Replicas must agree on routing and state-transfer state, not just data.
  mix(&schema_.version, sizeof(schema_.version));
  for (const auto& [version, piece] : handoffs_) {
    mix(&version, sizeof(version));
    mix(piece.state.data(), piece.state.size());
  }
  return h;
}

std::vector<ProcessId> StoreDeployment::all_replicas() const {
  std::vector<ProcessId> out;
  for (const auto& group : replicas) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

PartitionSchema StoreDeployment::schema() const {
  PartitionSchema s;
  s.version = schema_version;
  s.partitioner = partitioner;
  s.groups = partition_groups;
  s.replicas = replicas;
  s.global_group = global_group;
  return s;
}

void StoreDeployment::refresh(const coord::Registry& registry) {
  const coord::SchemaEntry& entry = registry.schema(kStoreSchemaKey);
  if (entry.version == 0) return;
  PartitionSchema s = PartitionSchema::decode(entry.encoded);
  if (s.version <= schema_version) return;
  partitioner = s.partitioner;
  partition_groups = s.groups;
  replicas = s.replicas;
  global_group = s.global_group;
  schema_version = s.version;
}

std::uint64_t StoreDeployment::replica_digest(runtime::Cluster& cluster,
                                              ProcessId pid) const {
  std::uint64_t digest = 0;
  smr::with_state_machine<const KvStateMachine>(
      cluster, pid, [&](const KvStateMachine& kv) { digest = kv.digest(); });
  return digest;
}

std::optional<Bytes> StoreDeployment::replica_get(
    runtime::Cluster& cluster, ProcessId pid, const std::string& key) const {
  std::optional<Bytes> value;
  smr::with_state_machine<const KvStateMachine>(
      cluster, pid, [&](const KvStateMachine& kv) { value = kv.get(key); });
  return value;
}

StoreDeployment build_store(runtime::Cluster& cluster,
                            coord::Registry& registry,
                            const StoreOptions& options) {
  MRP_CHECK(options.partitions >= 1);
  MRP_CHECK(options.replicas_per_partition >= 1);

  StoreDeployment dep;
  dep.partitioner = std::shared_ptr<Partitioner>(Partitioner::decode(
      options.partitioner.empty()
          ? HashPartitioner(options.partitions).encode()
          : options.partitioner));

  ProcessId pid = options.first_pid;
  GroupId group = options.first_group;

  // Allocate replica pids and per-partition groups first.
  for (std::size_t p = 0; p < options.partitions; ++p) {
    dep.partition_groups.push_back(group++);
    std::vector<ProcessId> rs;
    for (std::size_t r = 0; r < options.replicas_per_partition; ++r) {
      rs.push_back(pid++);
    }
    dep.replicas.push_back(std::move(rs));
  }
  if (options.global_ring) dep.global_group = group++;

  // Publish schema version 1 to the registry (the paper keeps the schema in
  // Zookeeper); replicas are seeded with the same version at construction.
  dep.schema_version = 1;
  const std::string encoded_schema = dep.schema().encode();
  registry.publish_schema(kStoreSchemaKey, encoded_schema);

  // Create the rings: partition ring members/acceptors are the partition's
  // replicas; the global ring spans every replica (all acceptors).
  for (std::size_t p = 0; p < options.partitions; ++p) {
    coord::RingConfig cfg;
    cfg.ring = dep.partition_groups[p];
    cfg.order = dep.replicas[p];
    cfg.acceptors.insert(dep.replicas[p].begin(), dep.replicas[p].end());
    registry.create_ring(cfg);
  }
  if (options.global_ring) {
    coord::RingConfig cfg;
    cfg.ring = dep.global_group;
    cfg.order = dep.all_replicas();
    cfg.acceptors.insert(cfg.order.begin(), cfg.order.end());
    registry.create_ring(cfg);
  }

  // Spawn the replicas.
  for (std::size_t p = 0; p < options.partitions; ++p) {
    multiring::NodeConfig cfg;
    cfg.merge_m = options.merge_m;
    cfg.rings.push_back(multiring::RingSub{dep.partition_groups[p],
                                           options.ring_params, true});
    if (options.global_ring) {
      cfg.rings.push_back(
          multiring::RingSub{dep.global_group, options.global_params, true});
    }
    smr::ReplicaOptions ro = options.replica_options;
    ro.partition_tag = static_cast<int>(p);
    for (ProcessId r : dep.replicas[p]) {
      cluster.add_node(
          r, runtime::factory_of<StoreReplicaNode>(
                 &registry, cfg,
                 smr::StateMachineFactory(
                     [encoded_schema](runtime::Runtime&, ProcessId) {
                       auto sm = std::make_unique<KvStateMachine>();
                       sm->set_schema(PartitionSchema::decode(encoded_schema));
                       return sm;
                     }),
                 ro, ElasticOptions{}));
    }
  }
  return dep;
}

}  // namespace mrp::mrpstore
