#include "dlog/dlog.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mrp::dlog {

Bytes encode_op(const Op& op) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(op.type));
  w.varint(op.logs.size());
  for (LogId l : op.logs) w.u32(l);
  w.u64(op.pos);
  w.bytes(op.data);
  return w.take();
}

Op decode_op(const Bytes& data) {
  codec::Reader r(data);
  Op op;
  op.type = static_cast<OpType>(r.u8());
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) op.logs.push_back(r.u32());
  op.pos = r.u64();
  op.data = r.bytes();
  r.expect_done();
  return op;
}

Bytes encode_result(const Result& res) {
  codec::Writer w;
  w.u8(static_cast<std::uint8_t>(res.status));
  w.varint(res.positions.size());
  for (const auto& [log, pos] : res.positions) {
    w.u32(log);
    w.u64(pos);
  }
  w.bytes(res.data);
  return w.take();
}

Result decode_result(const Bytes& data) {
  codec::Reader r(data);
  Result res;
  res.status = static_cast<Status>(r.u8());
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const LogId log = r.u32();
    const Position pos = r.u64();
    res.positions.emplace_back(log, pos);
  }
  res.data = r.bytes();
  r.expect_done();
  return res;
}

LogStateMachine::LogStateMachine(runtime::Runtime& rt, ProcessId self,
                                 std::vector<LogId> logs,
                                 LogStateMachineOptions options)
    : rt_(rt), self_(self), logs_(logs.begin(), logs.end()),
      options_(options) {
  for (LogId l : logs_) state_[l];
}

Bytes LogStateMachine::apply(GroupId /*group*/, const Bytes& encoded) {
  const Op op = decode_op(encoded);
  Result res;
  switch (op.type) {
    case OpType::kAppend:
    case OpType::kMultiAppend: {
      for (LogId l : op.logs) {
        if (!owned(l)) continue;  // another partition's log (multi-append)
        LogState& ls = state_[l];
        const Position pos = ls.next++;
        ls.entries.push_back(op.data);
        res.positions.emplace_back(l, pos);
        // Background data-file write; durability already comes from the
        // ring acceptors' logs.
        rt_.durable_write(options_.data_disk_index, op.data.size() + 16,
                          nullptr);
      }
      break;
    }
    case OpType::kRead: {
      MRP_CHECK(op.logs.size() == 1);
      const LogId l = op.logs[0];
      if (!owned(l)) {
        res.status = Status::kNotFound;
        break;
      }
      const LogState& ls = state_.at(l);
      if (op.pos < ls.trimmed_to) {
        res.status = Status::kTrimmed;
      } else if (op.pos >= ls.next) {
        res.status = Status::kNotFound;
      } else {
        res.data = ls.entries[op.pos - ls.trimmed_to];
      }
      break;
    }
    case OpType::kTrim: {
      MRP_CHECK(op.logs.size() == 1);
      const LogId l = op.logs[0];
      if (!owned(l)) {
        res.status = Status::kNotFound;
        break;
      }
      LogState& ls = state_.at(l);
      const Position upto = std::min(op.pos, ls.next);
      std::size_t flushed = 0;
      while (ls.trimmed_to < upto && !ls.entries.empty()) {
        flushed += ls.entries.front().size();
        ls.entries.pop_front();
        ++ls.trimmed_to;
      }
      ls.trimmed_to = std::max(ls.trimmed_to, upto);
      // "A trim command flushes the cache up to the trim position and
      // creates a new log file on disk."
      rt_.durable_write(options_.data_disk_index, flushed + 64, nullptr);
      break;
    }
  }
  return encode_result(res);
}

Bytes LogStateMachine::snapshot() const {
  codec::Writer w;
  w.varint(state_.size());
  for (const auto& [log, ls] : state_) {
    w.u32(log);
    w.u64(ls.next);
    w.u64(ls.trimmed_to);
    w.varint(ls.entries.size());
    for (const Bytes& e : ls.entries) w.bytes(e);
  }
  return w.take();
}

void LogStateMachine::restore(const Bytes& snapshot) {
  codec::Reader r(snapshot);
  state_.clear();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const LogId log = r.u32();
    LogState ls;
    ls.next = r.u64();
    ls.trimmed_to = r.u64();
    const std::uint64_t m = r.varint();
    for (std::uint64_t j = 0; j < m; ++j) ls.entries.push_back(r.bytes());
    state_[log] = std::move(ls);
  }
  r.expect_done();
}

Position LogStateMachine::next_position(LogId log) const {
  auto it = state_.find(log);
  return it == state_.end() ? 0 : it->second.next;
}

Position LogStateMachine::trimmed_to(LogId log) const {
  auto it = state_.find(log);
  return it == state_.end() ? 0 : it->second.trimmed_to;
}

std::optional<Bytes> LogStateMachine::entry(LogId log, Position pos) const {
  auto it = state_.find(log);
  if (it == state_.end()) return std::nullopt;
  const LogState& ls = it->second;
  if (pos < ls.trimmed_to || pos >= ls.next) return std::nullopt;
  return ls.entries[pos - ls.trimmed_to];
}

std::uint64_t LogStateMachine::digest() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const auto& [log, ls] : state_) {
    mix(log);
    mix(ls.next);
    mix(ls.trimmed_to);
    for (const Bytes& e : ls.entries) {
      for (std::uint8_t c : e) mix(c);
    }
  }
  return h;
}

std::uint64_t DLogDeployment::server_digest(runtime::Cluster& cluster,
                                            ProcessId pid) const {
  std::uint64_t digest = 0;
  smr::with_state_machine<const LogStateMachine>(
      cluster, pid, [&](const LogStateMachine& sm) { digest = sm.digest(); });
  return digest;
}

Position DLogDeployment::server_next_position(runtime::Cluster& cluster,
                                              ProcessId pid, LogId log) const {
  Position next = 0;
  smr::with_state_machine<const LogStateMachine>(
      cluster, pid,
      [&](const LogStateMachine& sm) { next = sm.next_position(log); });
  return next;
}

DLogDeployment build_dlog(runtime::Cluster& cluster, coord::Registry& registry,
                          const DLogOptions& options) {
  MRP_CHECK(options.num_logs >= 1);
  MRP_CHECK(options.servers >= 1);

  DLogDeployment dep;
  dep.num_logs = options.num_logs;
  ProcessId pid = options.first_pid;
  GroupId group = options.first_group;

  for (std::size_t s = 0; s < options.servers; ++s) dep.servers.push_back(pid++);
  for (std::size_t l = 0; l < options.num_logs; ++l) {
    dep.log_groups.push_back(group++);
  }
  if (options.common_ring) dep.common_group = group++;

  for (std::size_t l = 0; l < options.num_logs; ++l) {
    coord::RingConfig cfg;
    cfg.ring = dep.log_groups[l];
    cfg.order = dep.servers;
    cfg.acceptors.insert(dep.servers.begin(), dep.servers.end());
    registry.create_ring(cfg);
  }
  if (options.common_ring) {
    coord::RingConfig cfg;
    cfg.ring = dep.common_group;
    cfg.order = dep.servers;
    cfg.acceptors.insert(dep.servers.begin(), dep.servers.end());
    registry.create_ring(cfg);
  }

  multiring::NodeConfig node_cfg;
  node_cfg.merge_m = options.merge_m;
  std::vector<LogId> logs;
  for (std::size_t l = 0; l < options.num_logs; ++l) {
    logs.push_back(static_cast<LogId>(l));
    ringpaxos::RingParams rp = options.ring_params;
    rp.disk_index = static_cast<int>(l);  // one disk per ring (Figure 6)
    node_cfg.rings.push_back(
        multiring::RingSub{dep.log_groups[l], rp, true});
  }
  if (options.common_ring) {
    ringpaxos::RingParams rp = options.common_params;
    rp.disk_index = static_cast<int>(options.num_logs);
    node_cfg.rings.push_back(
        multiring::RingSub{dep.common_group, rp, true});
  }

  const LogStateMachineOptions sm_options = options.sm_options;
  for (ProcessId s : dep.servers) {
    cluster.add_node(
        s, runtime::factory_of<smr::ReplicaNode>(
               &registry, node_cfg,
               smr::StateMachineFactory(
                   [logs, sm_options](runtime::Runtime& r, ProcessId self) {
                     return std::make_unique<LogStateMachine>(r, self, logs,
                                                              sm_options);
                   }),
               options.replica_options));
  }
  return dep;
}

}  // namespace mrp::dlog
