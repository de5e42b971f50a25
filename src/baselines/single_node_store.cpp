#include "baselines/single_node_store.hpp"

#include "smr/command.hpp"

namespace mrp::baselines {

using mrpstore::Op;
using mrpstore::OpType;
using mrpstore::Result;
using mrpstore::Status;

SingleNodeStore::SingleNodeStore(runtime::Runtime& rt) : runtime::Node(rt) {}

void SingleNodeStore::on_message(ProcessId /*from*/,
                                 const runtime::Message& m) {
  if (m.kind() != smr::kMsgClientRequest) return;
  const auto& req = runtime::msg_cast<smr::MsgClientRequest>(m);
  const Op op = mrpstore::decode_op(req.command.op);
  Result res;
  switch (op.type) {
    case OpType::kRead: {
      auto it = data_.find(op.key);
      if (it == data_.end()) {
        res.status = Status::kNotFound;
      } else {
        res.value = it->second;
      }
      break;
    }
    case OpType::kUpdate: {
      auto it = data_.find(op.key);
      if (it == data_.end()) {
        res.status = Status::kNotFound;
      } else {
        it->second = op.value;
      }
      break;
    }
    case OpType::kInsert:
      data_[op.key] = op.value;
      break;
    case OpType::kDelete:
      res.status = data_.erase(op.key) ? Status::kOk : Status::kNotFound;
      break;
    case OpType::kScan: {
      auto it = data_.lower_bound(op.key);
      const std::uint32_t limit = op.limit == 0 ? ~0u : op.limit;
      while (it != data_.end() && res.entries.size() < limit) {
        if (!op.key_hi.empty() && it->first >= op.key_hi) break;
        res.entries.emplace_back(it->first, it->second);
        ++it;
      }
      break;
    }
    case OpType::kSplit:
    case OpType::kMultiGet:
    case OpType::kMultiPut:
    case OpType::kTransfer:
      break;  // MRP-Store control / atomic ops; meaningless for the baseline
  }
  auto reply = std::make_shared<smr::MsgClientReply>();
  reply->session = req.command.session;
  reply->seq = req.command.seq;
  reply->partition_tag = 0;
  reply->result = mrpstore::encode_result(res);
  send(smr::session_client(req.command.session), reply);
}

void SingleNodeStore::preload(std::string key, Bytes value) {
  data_[std::move(key)] = std::move(value);
}

smr::Request SingleNodeStore::make(Op op) const {
  smr::Request req;
  req.sends.push_back(smr::Request::Send{-1, {id()}});
  req.op = mrpstore::encode_op(op);
  req.expected_partitions = 1;
  return req;
}

smr::Request SingleNodeStore::read(const std::string& key) const {
  Op op;
  op.type = OpType::kRead;
  op.key = key;
  return make(std::move(op));
}

smr::Request SingleNodeStore::update(const std::string& key,
                                     Bytes value) const {
  Op op;
  op.type = OpType::kUpdate;
  op.key = key;
  op.value = std::move(value);
  return make(std::move(op));
}

smr::Request SingleNodeStore::insert(const std::string& key,
                                     Bytes value) const {
  Op op;
  op.type = OpType::kInsert;
  op.key = key;
  op.value = std::move(value);
  return make(std::move(op));
}

smr::Request SingleNodeStore::remove(const std::string& key) const {
  Op op;
  op.type = OpType::kDelete;
  op.key = key;
  return make(std::move(op));
}

smr::Request SingleNodeStore::scan(const std::string& lo,
                                   const std::string& hi,
                                   std::uint32_t limit) const {
  Op op;
  op.type = OpType::kScan;
  op.key = lo;
  op.key_hi = hi;
  op.limit = limit;
  return make(std::move(op));
}

}  // namespace mrp::baselines
