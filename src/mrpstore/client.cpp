#include "mrpstore/client.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mrp::mrpstore {

StoreClient::StoreClient(StoreDeployment deployment)
    : deployment_(std::move(deployment)) {
  MRP_CHECK(deployment_.partitioner != nullptr);
}

smr::Request StoreClient::single_key(Op op) const {
  const int p = deployment_.partitioner->partition_for_key(op.key);
  smr::Request req;
  req.sends.push_back(smr::Request::Send{
      deployment_.partition_groups[static_cast<std::size_t>(p)],
      deployment_.replicas[static_cast<std::size_t>(p)]});
  req.op = encode_op(op);
  req.expected_partitions = 1;
  return req;
}

smr::Request StoreClient::read(const std::string& key) const {
  Op op;
  op.type = OpType::kRead;
  op.key = key;
  return single_key(std::move(op));
}

smr::Request StoreClient::update(const std::string& key, Bytes value) const {
  Op op;
  op.type = OpType::kUpdate;
  op.key = key;
  op.value = std::move(value);
  return single_key(std::move(op));
}

smr::Request StoreClient::insert(const std::string& key, Bytes value) const {
  Op op;
  op.type = OpType::kInsert;
  op.key = key;
  op.value = std::move(value);
  return single_key(std::move(op));
}

smr::Request StoreClient::remove(const std::string& key) const {
  Op op;
  op.type = OpType::kDelete;
  op.key = key;
  return single_key(std::move(op));
}

smr::Request StoreClient::multi_partition(
    Op op, const std::vector<std::string>& keys) const {
  MRP_CHECK_MSG(!keys.empty(), "multi-key operation with no keys");
  // Stamp the routing version: a replica on a newer ordered schema rejects
  // the whole command (kStaleRouting) instead of applying half of it.
  op.schema_version = deployment_.schema_version;

  std::vector<int> parts;
  parts.reserve(keys.size());
  for (const std::string& k : keys) {
    parts.push_back(deployment_.partitioner->partition_for_key(k));
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());

  smr::Request req;
  req.op = encode_op(op);
  for (int p : parts) {
    req.sends.push_back(smr::Request::Send{
        deployment_.partition_groups[static_cast<std::size_t>(p)],
        deployment_.replicas[static_cast<std::size_t>(p)]});
  }
  req.expected_partitions = parts.size();
  // More than one owning partition: atomic multi-group multicast — each
  // command copy carries the full addressed group set, replicas commit at
  // the merged position of their last subscribed addressed delivery.
  req.atomic = parts.size() > 1;
  return req;
}

smr::Request StoreClient::multi_get(const std::vector<std::string>& keys) const {
  Op op;
  op.type = OpType::kMultiGet;
  op.keys = keys;
  return multi_partition(std::move(op), keys);
}

smr::Request StoreClient::multi_put(
    std::vector<std::pair<std::string, Bytes>> entries) const {
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const auto& [k, v] : entries) keys.push_back(k);
  Op op;
  op.type = OpType::kMultiPut;
  op.entries = std::move(entries);
  return multi_partition(std::move(op), keys);
}

smr::Request StoreClient::transfer(const std::string& from,
                                   const std::string& to,
                                   std::int64_t amount) const {
  Op op;
  op.type = OpType::kTransfer;
  op.key = from;
  op.key_hi = to;
  op.amount = amount;
  return multi_partition(std::move(op), {from, to});
}

smr::Request StoreClient::scan(const std::string& lo, const std::string& hi,
                               std::uint32_t limit_per_partition) const {
  Op op;
  op.type = OpType::kScan;
  op.key = lo;
  op.key_hi = hi;
  op.limit = limit_per_partition;
  // Stamp the routing version: a replica on a newer ordered schema rejects
  // the scan (kStaleRouting) instead of letting it silently miss a key
  // range that moved to a partition this request never addressed.
  op.schema_version = deployment_.schema_version;

  smr::Request req;
  req.op = encode_op(op);

  std::vector<int> parts = deployment_.partitioner->partitions_for_range(lo, hi);
  if (parts.empty()) {
    // Empty range ([lo, hi) with hi <= lo): still a well-formed request —
    // route it to lo's owner, which answers with zero entries.
    parts.push_back(deployment_.partitioner->partition_for_key(lo));
  }

  if (deployment_.global_group >= 0) {
    // One multicast on the global ring; every partition delivers and
    // answers. Any replica can act as proposer for the global ring.
    req.sends.push_back(smr::Request::Send{deployment_.global_group,
                                           deployment_.all_replicas()});
    req.expected_partitions = deployment_.replicas.size();
  } else {
    // Independent rings: one multicast per overlapping partition; ordered
    // within each partition only.
    for (int p : parts) {
      req.sends.push_back(smr::Request::Send{
          deployment_.partition_groups[static_cast<std::size_t>(p)],
          deployment_.replicas[static_cast<std::size_t>(p)]});
    }
    req.expected_partitions = parts.size();
  }
  return req;
}

void StoreClient::refresh(const coord::Registry& registry) {
  deployment_.refresh(registry);
}

smr::ClientNode::RerouteFn StoreClient::reroute_fn(
    const coord::Registry* registry) {
  MRP_CHECK(registry != nullptr);
  return [this, registry](
             const smr::Completion& c) -> std::optional<smr::Request> {
    bool stale = false;
    for (const auto& [tag, bytes] : c.results) {
      (void)tag;
      if (decode_result(bytes).status == Status::kStaleRouting) {
        stale = true;
        break;
      }
    }
    if (!stale) return std::nullopt;
    refresh(*registry);
    Op op = decode_op(c.op);
    switch (op.type) {
      case OpType::kScan:
        // Rebuilt under the refreshed schema: covers (and re-stamps) the
        // new partition layout.
        return scan(op.key, op.key_hi, op.limit);
      case OpType::kSplit:
        return std::nullopt;
      case OpType::kMultiGet:
        // Read-only: safe to re-route and re-issue wholesale.
        return multi_get(op.keys);
      case OpType::kMultiPut:
      case OpType::kTransfer:
        // NOT auto-rerouted: a kStaleRouting from one partition does not
        // mean every partition rejected (replicas still on the client's
        // version applied their half before the split reached them), and a
        // re-issue carries a fresh seq, so blindly retrying could apply the
        // other half twice. The stale status is reported to the caller,
        // who decides (cross-partition writes racing an online split are
        // an admin-window concern, not a steady-state one).
        return std::nullopt;
      default:
        return single_key(std::move(op));
    }
  };
}

smr::ClientNode::Options StoreClient::client_options(
    std::uint32_t workers, std::uint32_t max_outstanding,
    TimeNs retry_timeout) {
  return smr::ClientNode::Options::flow(workers, max_outstanding,
                                        retry_timeout);
}

Result StoreClient::merge_multi(const std::map<int, Bytes>& replies) {
  Result merged;
  for (const auto& [tag, bytes] : replies) {
    (void)tag;
    Result part = decode_result(bytes);
    if (static_cast<std::uint8_t>(part.status) >
        static_cast<std::uint8_t>(merged.status)) {
      merged.status = part.status;
    }
    merged.entries.insert(merged.entries.end(),
                          std::make_move_iterator(part.entries.begin()),
                          std::make_move_iterator(part.entries.end()));
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return merged;
}

Result StoreClient::merge_scan(const std::map<int, Bytes>& replies,
                               std::uint32_t limit) {
  Result merged;
  for (const auto& [tag, bytes] : replies) {
    (void)tag;
    Result part = decode_result(bytes);
    merged.entries.insert(merged.entries.end(),
                          std::make_move_iterator(part.entries.begin()),
                          std::make_move_iterator(part.entries.end()));
  }
  std::sort(merged.entries.begin(), merged.entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (limit > 0 && merged.entries.size() > limit) {
    merged.entries.resize(limit);
  }
  return merged;
}

}  // namespace mrp::mrpstore
