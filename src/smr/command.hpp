// State-machine-replication command envelopes and client messages
// (kind range 300-399).
//
// A command is identified by (session, seq): the session encodes the client
// process, the worker thread and the request's destination group set, and
// seq numbers each session's requests 1, 2, 3, ... without gaps. That makes
// replica-side duplicate detection exact (a retried command is either the
// session's most recent command — answered from the reply cache — or older,
// in which case the client has already moved on) and keeps it small: every
// replica serving a session delivers all of its seqs, so its executed floor
// advances instead of remembering each command.
//
// Clients batch small commands per group up to a configured byte budget
// (32 KB in the paper); one multicast value carries one batch.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/codec.hpp"
#include "common/types.hpp"
#include "runtime/message.hpp"

namespace mrp::smr {

constexpr int kMsgClientRequest = 300;
constexpr int kMsgClientReply = 301;
constexpr int kMsgClientBusy = 302;

using SessionId = std::uint64_t;

/// Session ids pack (destination-set index, client process, worker index):
/// the set index in bits 52-63, the client in bits 20-51 and the worker in
/// bits 0-19, so `session & 0xfffff` is the worker.
constexpr std::uint32_t kSessionSets = 1u << 12;
constexpr SessionId make_session(ProcessId client, std::uint32_t worker,
                                 std::uint32_t set_index = 0) {
  return (static_cast<SessionId>(set_index & (kSessionSets - 1)) << 52) |
         (static_cast<SessionId>(static_cast<std::uint32_t>(client)) << 20) |
         (worker & 0xfffff);
}
constexpr ProcessId session_client(SessionId s) {
  return static_cast<ProcessId>(static_cast<std::uint32_t>(s >> 20));
}
constexpr std::uint32_t session_set(SessionId s) {
  return static_cast<std::uint32_t>(s >> 52);
}

struct Command {
  SessionId session = 0;
  std::uint64_t seq = 0;
  Bytes op;  // service-defined operation payload
  /// Atomic multi-group addressing: the full sorted set of groups this
  /// command is multicast to. Empty (or a single entry) = ordinary
  /// single-group command. The client proposes one copy of the command —
  /// same (session, seq), same op — on every addressed ring; a replica
  /// gathers the copies and executes the command once, at the merged
  /// position of the last of its subscribed addressed groups to deliver.
  std::vector<GroupId> groups;

  bool multi_group() const { return groups.size() > 1; }

  std::size_t wire_size() const {
    return 21 + 4 * groups.size() + op.size();
  }
};

/// One multicast value = one batch of commands for the same group.
struct Batch {
  std::vector<Command> commands;

  std::size_t wire_size() const {
    std::size_t s = 4;
    for (const auto& c : commands) s += c.wire_size();
    return s;
  }
};

Bytes encode_batch(const Batch& b);
Batch decode_batch(const Bytes& data);

/// Client -> proposer (a replica acting as proposer for `group`).
struct MsgClientRequest final : runtime::Message {
  GroupId group = -1;
  Command command;
  int kind() const override { return kMsgClientRequest; }
  std::size_t wire_size() const override { return 12 + command.wire_size(); }
};

/// Replica -> client (datagram-style response; first one wins).
struct MsgClientReply final : runtime::Message {
  SessionId session = 0;
  std::uint64_t seq = 0;
  int partition_tag = 0;  // which partition answered (scan fan-in)
  Bytes result;
  int kind() const override { return kMsgClientReply; }
  std::size_t wire_size() const override { return 28 + result.size(); }
};

/// Proposer -> client pushback: the replica's per-group admission window is
/// full and the command was NOT proposed. The client re-sends the same
/// command (rotating to the next candidate proposer) no sooner than
/// `retry_after`, with jittered exponential backoff layered on top.
struct MsgClientBusy final : runtime::Message {
  SessionId session = 0;
  std::uint64_t seq = 0;
  GroupId group = -1;
  TimeNs retry_after = 0;
  int kind() const override { return kMsgClientBusy; }
  std::size_t wire_size() const override { return 32; }
};

}  // namespace mrp::smr
