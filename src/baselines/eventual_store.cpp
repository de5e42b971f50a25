#include "baselines/eventual_store.hpp"

#include "common/check.hpp"
#include "smr/command.hpp"

namespace mrp::baselines {

using mrpstore::Op;
using mrpstore::OpType;
using mrpstore::Result;
using mrpstore::Status;

EventualNode::EventualNode(runtime::Runtime& rt, std::vector<ProcessId> peers,
                           int partition_tag, TimeNs scan_entry_cost)
    : runtime::Node(rt), peers_(std::move(peers)),
      partition_tag_(partition_tag), scan_entry_cost_(scan_entry_cost) {}

void EventualNode::apply_lww(const std::string& key, Entry entry) {
  auto it = data_.find(key);
  if (it == data_.end()) {
    data_.emplace(key, std::move(entry));
    return;
  }
  // Last writer wins; writer id breaks timestamp ties deterministically.
  if (entry.ts > it->second.ts ||
      (entry.ts == it->second.ts && entry.writer > it->second.writer)) {
    it->second = std::move(entry);
  }
}

Bytes EventualNode::execute(const Bytes& op_bytes) {
  const Op op = mrpstore::decode_op(op_bytes);
  Result res;
  auto replicate = [this](const std::string& key, const Entry& e) {
    for (ProcessId p : peers_) {
      if (p == id()) continue;
      auto msg = std::make_shared<MsgEvReplicate>();
      msg->key = key;
      msg->value = e.value;
      msg->ts = e.ts;
      msg->writer = e.writer;
      msg->tombstone = e.tombstone;
      send(p, msg);
    }
  };
  switch (op.type) {
    case OpType::kRead: {
      auto it = data_.find(op.key);
      if (it == data_.end() || it->second.tombstone) {
        res.status = Status::kNotFound;
      } else {
        res.value = it->second.value;
      }
      break;
    }
    case OpType::kUpdate:
    case OpType::kInsert: {
      Entry e{op.value, now(), id(), false};
      apply_lww(op.key, e);
      replicate(op.key, e);
      break;
    }
    case OpType::kDelete: {
      Entry e{{}, now(), id(), true};
      apply_lww(op.key, e);
      replicate(op.key, e);
      break;
    }
    case OpType::kScan: {
      auto it = data_.lower_bound(op.key);
      const std::uint32_t limit = op.limit == 0 ? ~0u : op.limit;
      while (it != data_.end() && res.entries.size() < limit) {
        if (!op.key_hi.empty() && it->first >= op.key_hi) break;
        if (!it->second.tombstone) {
          res.entries.emplace_back(it->first, it->second.value);
        }
        ++it;
      }
      if (scan_entry_cost_ > 0) {
        charge(scan_entry_cost_ *
               static_cast<TimeNs>(res.entries.size() + 1));
      }
      break;
    }
    case OpType::kSplit:
    case OpType::kMultiGet:
    case OpType::kMultiPut:
    case OpType::kTransfer:
      break;  // MRP-Store control / atomic ops; meaningless for the baseline
  }
  return mrpstore::encode_result(res);
}

void EventualNode::on_message(ProcessId /*from*/,
                              const runtime::Message& m) {
  switch (m.kind()) {
    case smr::kMsgClientRequest: {
      const auto& req = runtime::msg_cast<smr::MsgClientRequest>(m);
      auto reply = std::make_shared<smr::MsgClientReply>();
      reply->session = req.command.session;
      reply->seq = req.command.seq;
      reply->partition_tag = partition_tag_;
      reply->result = execute(req.command.op);
      send(smr::session_client(req.command.session), reply);
      return;
    }
    case kMsgEvReplicate: {
      const auto& rep = runtime::msg_cast<MsgEvReplicate>(m);
      apply_lww(rep.key, Entry{rep.value, rep.ts, rep.writer, rep.tombstone});
      return;
    }
    default:
      return;
  }
}

void EventualNode::preload(std::string key, Bytes value) {
  data_[std::move(key)] = Entry{std::move(value), 0, kNoProcess, false};
}

std::uint64_t EventualNode::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [k, e] : data_) {
    if (e.tombstone) continue;
    mix(k.data(), k.size());
    mix(e.value.data(), e.value.size());
  }
  return h;
}

EventualDeployment build_eventual_store(runtime::Cluster& cluster,
                                        const EventualOptions& options) {
  EventualDeployment dep;
  dep.partitioner =
      std::shared_ptr<mrpstore::Partitioner>(mrpstore::Partitioner::decode(
          options.partitioner.empty()
              ? mrpstore::HashPartitioner(options.partitions).encode()
              : options.partitioner));

  ProcessId pid = options.first_pid;
  for (std::size_t p = 0; p < options.partitions; ++p) {
    std::vector<ProcessId> rs;
    for (std::size_t r = 0; r < options.replicas_per_partition; ++r) {
      rs.push_back(pid++);
    }
    dep.replicas.push_back(rs);
  }
  for (std::size_t p = 0; p < options.partitions; ++p) {
    for (ProcessId r : dep.replicas[p]) {
      cluster.add_node(r, runtime::factory_of<EventualNode>(
                              dep.replicas[p], static_cast<int>(p),
                              options.scan_entry_cost));
    }
  }
  return dep;
}

EventualClient::EventualClient(EventualDeployment deployment)
    : deployment_(std::move(deployment)) {}

smr::Request EventualClient::single_key(Op op) const {
  const int p = deployment_.partitioner->partition_for_key(op.key);
  smr::Request req;
  req.sends.push_back(smr::Request::Send{
      -1, deployment_.replicas[static_cast<std::size_t>(p)]});
  req.op = mrpstore::encode_op(op);
  req.expected_partitions = 1;
  return req;
}

smr::Request EventualClient::read(const std::string& key) const {
  Op op;
  op.type = OpType::kRead;
  op.key = key;
  return single_key(std::move(op));
}

smr::Request EventualClient::update(const std::string& key,
                                    Bytes value) const {
  Op op;
  op.type = OpType::kUpdate;
  op.key = key;
  op.value = std::move(value);
  return single_key(std::move(op));
}

smr::Request EventualClient::insert(const std::string& key,
                                    Bytes value) const {
  Op op;
  op.type = OpType::kInsert;
  op.key = key;
  op.value = std::move(value);
  return single_key(std::move(op));
}

smr::Request EventualClient::remove(const std::string& key) const {
  Op op;
  op.type = OpType::kDelete;
  op.key = key;
  return single_key(std::move(op));
}

smr::Request EventualClient::scan(const std::string& lo, const std::string& hi,
                                  std::uint32_t limit_per_partition) const {
  Op op;
  op.type = OpType::kScan;
  op.key = lo;
  op.key_hi = hi;
  op.limit = limit_per_partition;

  smr::Request req;
  req.op = mrpstore::encode_op(op);
  for (std::size_t p = 0; p < deployment_.replicas.size(); ++p) {
    req.sends.push_back(smr::Request::Send{-1, deployment_.replicas[p]});
  }
  req.expected_partitions = deployment_.replicas.size();
  return req;
}

}  // namespace mrp::baselines
