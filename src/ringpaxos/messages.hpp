// Ring Paxos wire messages (kind range 100-199).
//
// Ring circulation: MsgProposal and MsgPhase2 travel the unidirectional ring
// overlay (each member forwards to its successor in the current view);
// MsgDecision is emitted by the acceptor whose vote completes a quorum and
// circulates one full loop. Phase 1 and retransmission are point-to-point
// (configuration/recovery traffic, not on the critical path).
//
// Every circulating message carries a TTL, decremented per hop, so that a
// message orphaned by a membership change cannot loop forever.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "paxos/paxos.hpp"
#include "runtime/message.hpp"

namespace mrp::ringpaxos {

constexpr int kMsgProposal = 100;
constexpr int kMsgPhase1A = 101;
constexpr int kMsgPhase1B = 102;
constexpr int kMsgPhase2 = 103;
constexpr int kMsgDecision = 104;
constexpr int kMsgRetransmitReq = 105;
constexpr int kMsgRetransmitReply = 106;
constexpr int kMsgTrim = 107;
constexpr int kMsgBusy = 108;
constexpr int kMsgSkipDemand = 109;
constexpr int kMsgLogSyncReq = 110;
constexpr int kMsgLogSyncReply = 111;

struct RingMessage : runtime::Message {
  GroupId ring = -1;
  int ttl = 0;
};

/// A value on its way to the coordinator, forwarded along the ring.
struct MsgProposal final : RingMessage {
  paxos::Value value;
  int kind() const override { return kMsgProposal; }
  std::size_t wire_size() const override { return 16 + value.wire_size(); }
};

/// Phase 1 pre-execution for all instances >= floor (open-ended range),
/// sent point-to-point by a newly elected coordinator. `aview` fences the
/// message to one acceptor view: votes/promises from different quorum bases
/// must never mix (see coord/registry.hpp acceptor reconfiguration).
struct MsgPhase1A final : RingMessage {
  Round round = 0;
  InstanceId floor = 0;
  std::uint64_t aview = 0;
  int kind() const override { return kMsgPhase1A; }
  std::size_t wire_size() const override { return 40; }
};

struct MsgPhase1B final : RingMessage {
  Round round = 0;
  ProcessId acceptor = kNoProcess;
  InstanceId trimmed_to = 0;
  std::uint64_t aview = 0;
  std::vector<paxos::Promise> promises;  // non-trimmed records >= floor
  int kind() const override { return kMsgPhase1B; }
  std::size_t wire_size() const override {
    std::size_t s = 48;
    for (const auto& p : promises) s += 32 + p.value.payload.size();
    return s;
  }
};

/// Combined Phase 2A/2B: the proposed value plus the votes gathered so far
/// (bitmask over the configured acceptor list of acceptor view `aview`).
/// Circulates the full ring so that every member receives the value.
/// Acceptors vote only when `aview` matches their current view — vote bits
/// are positional in the configured list, so a mask from one view is
/// meaningless (unsafe) under another.
struct MsgPhase2 final : RingMessage {
  Round round = 0;
  InstanceId instance = 0;
  paxos::Value value;
  std::uint64_t votes = 0;
  std::uint64_t aview = 0;
  int kind() const override { return kMsgPhase2; }
  std::size_t wire_size() const override { return 48 + value.wire_size(); }
};

/// Decision notification; small (references the value by instance — members
/// cache values from the Phase 2 pass). `with_value` is set when a decision
/// is re-circulated after a coordinator change, in which case the payload
/// rides along for members that missed the original Phase 2.
struct MsgDecision final : RingMessage {
  InstanceId instance = 0;
  paxos::Value value;
  bool with_value = false;
  ProcessId origin = kNoProcess;
  int kind() const override { return kMsgDecision; }
  std::size_t wire_size() const override {
    return 48 + (with_value ? value.wire_size() : 0);
  }
};

/// Learner asks an acceptor for decided instances in [lo, hi).
struct MsgRetransmitReq final : RingMessage {
  InstanceId lo = 0;
  InstanceId hi = 0;
  int kind() const override { return kMsgRetransmitReq; }
  std::size_t wire_size() const override { return 32; }
};

struct MsgRetransmitReply final : RingMessage {
  InstanceId lo = 0;
  InstanceId hi = 0;
  InstanceId trimmed_to = 0;
  std::vector<std::pair<InstanceId, paxos::Value>> decided;
  int kind() const override { return kMsgRetransmitReply; }
  std::size_t wire_size() const override {
    std::size_t s = 48;
    for (const auto& [_, v] : decided) s += 16 + v.wire_size();
    return s;
  }
};

/// Instructs an acceptor to trim its log below `upto` (recovery protocol).
struct MsgTrim final : RingMessage {
  InstanceId upto = 0;
  int kind() const override { return kMsgTrim; }
  std::size_t wire_size() const override { return 24; }
};

/// Joining acceptor asks a sync source for its acceptor-log records starting
/// at instance `from` (catch-up before activation; point-to-point). `seq` is
/// the Registry's change sequence number, echoed in the reply so stale
/// chunks from a restarted change attempt are dropped.
struct MsgLogSyncReq final : RingMessage {
  std::uint64_t seq = 0;
  InstanceId from = 0;
  int kind() const override { return kMsgLogSyncReq; }
  std::size_t wire_size() const override { return 32; }
};

/// One chunk of a source acceptor's log: all records in [from, next), plus
/// the source's promise floor and trim horizon (the joiner adopts the maxima
/// across all sources). `done` marks the final chunk from this source.
struct MsgLogSyncReply final : RingMessage {
  std::uint64_t seq = 0;
  InstanceId from = 0;  // echoed request cursor
  Round promised = 0;
  InstanceId trimmed_to = 0;
  std::vector<paxos::Promise> records;
  InstanceId next = 0;
  bool done = false;
  int kind() const override { return kMsgLogSyncReply; }
  std::size_t wire_size() const override {
    std::size_t s = 64;
    for (const auto& p : records) s += 32 + p.value.payload.size();
    return s;
  }
};

/// Coordinator -> proposer pushback (point-to-point, off the ring): the
/// bounded pending queue is full, value `id` was shed, and the proposer
/// should re-submit no sooner than `retry_after` (it layers jittered
/// exponential backoff on top — see common/backoff.hpp).
struct MsgBusy final : RingMessage {
  ValueId id;
  TimeNs retry_after = 0;
  int kind() const override { return kMsgBusy; }
  std::size_t wire_size() const override { return 36; }
};

/// Learner -> coordinator (point-to-point, off the ring): this learner's
/// merge is stalled on the ring while other rings hold decided instances,
/// so the coordinator should skip up to (excluding) `upto` now rather than
/// at its next rate-leveling tick. Stale or duplicate demands are no-ops.
struct MsgSkipDemand final : RingMessage {
  InstanceId upto = 0;
  int kind() const override { return kMsgSkipDemand; }
  std::size_t wire_size() const override { return 24; }
};

}  // namespace mrp::ringpaxos
