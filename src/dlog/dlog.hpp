// dLog: a distributed shared log on atomic multicast (Section 6.2,
// operations of Table 2).
//
// Each log is assigned one multicast group (ring); appends, reads and trims
// are multicast to the log's group, and multi-appends — atomic appends to
// several logs — to a common group every server subscribes to. The
// deterministic merge orders per-log traffic and multi-appends consistently
// at every server, so append positions are identical on all replicas.
//
// Durability comes from the ring acceptors' stable logs (sync or async
// write mode); the servers keep log contents in memory (the paper's 200 MB
// cache) and write data files in the background.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "codec/codec.hpp"
#include "common/types.hpp"
#include "coord/registry.hpp"
#include "runtime/cluster.hpp"
#include "smr/replica.hpp"
#include "smr/state_machine.hpp"

namespace mrp::dlog {

using LogId = std::uint32_t;
using Position = std::uint64_t;

// --- operation encoding (Table 2) ---

enum class OpType : std::uint8_t {
  kAppend = 1,
  kMultiAppend = 2,
  kRead = 3,
  kTrim = 4,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,  // position beyond the end of the log
  kTrimmed = 2,   // position below the trim point
};

struct Op {
  OpType type = OpType::kAppend;
  std::vector<LogId> logs;  // one entry except for multi-append
  Position pos = 0;         // read/trim
  Bytes data;               // append/multi-append
};

Bytes encode_op(const Op& op);
Op decode_op(const Bytes& data);

struct Result {
  Status status = Status::kOk;
  std::vector<std::pair<LogId, Position>> positions;  // appends
  Bytes data;                                         // read
};

Bytes encode_result(const Result& r);
Result decode_result(const Bytes& data);

// --- server state machine ---

struct LogStateMachineOptions {
  /// Device index used for the servers' background data-file writes.
  int data_disk_index = 100;
};

class LogStateMachine final : public smr::StateMachine {
 public:
  LogStateMachine(runtime::Runtime& rt, ProcessId self,
                  std::vector<LogId> logs,
                  LogStateMachineOptions options);

  Bytes apply(GroupId group, const Bytes& op) override;
  Bytes snapshot() const override;
  void restore(const Bytes& snapshot) override;

  Position next_position(LogId log) const;
  Position trimmed_to(LogId log) const;
  std::optional<Bytes> entry(LogId log, Position pos) const;
  std::uint64_t digest() const;

 private:
  struct LogState {
    Position next = 0;
    Position trimmed_to = 0;
    std::deque<Bytes> entries;  // entries[i] is position trimmed_to + i
  };

  bool owned(LogId log) const { return logs_.count(log) > 0; }

  runtime::Runtime& rt_;
  ProcessId self_;
  std::set<LogId> logs_;
  LogStateMachineOptions options_;
  std::map<LogId, LogState> state_;
};

// --- deployment ---

struct DLogOptions {
  std::size_t num_logs = 2;
  std::size_t servers = 3;
  bool common_ring = true;  // required for multi-append
  std::uint32_t merge_m = 1;
  /// Ring i uses disk index i on each server (the paper's one-disk-per-ring
  /// vertical-scalability setup); write mode etc. from ring_params.
  ringpaxos::RingParams ring_params;
  ringpaxos::RingParams common_params;
  smr::ReplicaOptions replica_options;
  LogStateMachineOptions sm_options;
  ProcessId first_pid = 200;
  GroupId first_group = 50;
};

struct DLogDeployment {
  std::vector<GroupId> log_groups;  // group of log i
  GroupId common_group = -1;
  std::vector<ProcessId> servers;
  std::size_t num_logs = 0;

  GroupId group_of(LogId log) const { return log_groups.at(log); }

  /// Order-sensitive digest of the server's full log state — the
  /// convergence probe used by chaos scenarios (fault::watch_dlog) and
  /// tests: all servers must agree once a run drains. `pid` must be an
  /// alive server of this deployment.
  std::uint64_t server_digest(runtime::Cluster& cluster, ProcessId pid) const;

  /// Append position the server would assign next for `log` (durability
  /// probes: an acked append must be below this at every alive server).
  Position server_next_position(runtime::Cluster& cluster, ProcessId pid,
                                LogId log) const;
};

DLogDeployment build_dlog(runtime::Cluster& cluster, coord::Registry& registry,
                          const DLogOptions& options);

}  // namespace mrp::dlog
