// One process's participation in one Ring Paxos ring.
//
// A RingHandler is a component embedded in a host runtime::Node (the
// multiring::MultiRingNode): the host demultiplexes incoming messages by
// ring id and forwards them here. Depending on the current view and the
// configured roles, the handler acts as proposer (propose / retry), acceptor
// (vote + stable log + retransmission + trim), coordinator (Phase 1,
// instance pipeline, rate leveling), and learner (ordered decision stream).
//
// Delivery contract: `deliver` is invoked exactly once per consensus
// instance, in instance order, starting from the delivery floor. Skip values
// are delivered too (the deterministic merger consumes their quota); a skip
// covers `skip_count` consecutive instances.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/backoff.hpp"
#include "common/instance_map.hpp"
#include "common/metrics.hpp"
#include "common/types.hpp"
#include "coord/registry.hpp"
#include "paxos/paxos.hpp"
#include "ringpaxos/messages.hpp"
#include "runtime/node.hpp"
#include "storage/acceptor_log.hpp"

namespace mrp::ringpaxos {

struct RingParams {
  storage::WriteMode write_mode = storage::WriteMode::Memory;
  int disk_index = 0;
  /// Background CPU per logged byte in async mode (models the paper's
  /// Java-GC overhead for heap-buffered async writes; 0 disables).
  double log_background_ns_per_byte = 0.0;

  std::size_t window = 4096;  // max undecided instances at the coordinator

  // Flow control (bounded pipeline): the coordinator queues at most
  // max_pending values waiting for an inflight slot; overflow is shed back
  // to the proposer with MsgBusy + retry-after, and the proposer re-submits
  // under jittered exponential backoff (busy_backoff). The inflight cap
  // itself adapts between min_window and window by decided rate (AIMD:
  // +1 per decision, halved when a Phase-2 retry interval passes without
  // the ring draining) so a slow ring does not pin max-window memory.
  std::size_t max_pending = 16 * 1024;
  std::size_t min_window = 64;
  TimeNs busy_retry_hint = 5 * kMillisecond;  // floor sent with MsgBusy
  BackoffParams busy_backoff;

  TimeNs phase2_retry = 500 * kMillisecond;   // coordinator re-send
  TimeNs proposal_retry = 1000 * kMillisecond;  // proposer re-send
  TimeNs gap_timeout = 50 * kMillisecond;     // learner gap -> retransmit

  /// Retransmission serving (recovery traffic): at most this many instances
  /// per reply (the learner re-requests the remainder), and reading +
  /// serializing log records costs the acceptor CPU per byte (the paper's
  /// "re-proposals due to recovery traffic" effect, Figure 8 event 5).
  std::size_t max_retransmit_instances = 20'000;
  double retransmit_cpu_ns_per_byte = 1.0;

  /// Deleting trimmed records costs the acceptor CPU (BDB range deletes;
  /// Figure 8 event 3).
  TimeNs trim_cpu_per_record = 500;

  // Rate leveling (Section 4): every skip_interval (Delta) the coordinator
  // tops the ring up to lambda instances/sec with one skip-range proposal.
  TimeNs skip_interval = 5 * kMillisecond;  // Delta
  double lambda = 0.0;                      // max expected msgs/sec; 0 = off
};

class RingHandler {
 public:
  /// deliver(ring, instance, value): ordered decision stream (see above).
  using DeliverFn =
      std::function<void(GroupId, InstanceId, const paxos::Value&)>;
  /// Called when a gap cannot be retransmitted because acceptors trimmed
  /// past it: the replica must run full recovery (fetch a remote checkpoint).
  using TrimmedGapFn = std::function<void(GroupId, InstanceId trimmed_to)>;
  /// Called when a value this handler itself proposed reaches the ordered
  /// stream (decided + delivered). The smr layer returns flow-control
  /// credits here; fires exactly once per proposed value.
  using OwnDeliveredFn = std::function<void(GroupId, const paxos::Value&)>;

  /// Snapshot of the bounded-pipeline state. Coordinator-side fields are
  /// zero on non-coordinators; the caps bind the steady-state pipeline
  /// (Phase-1 re-adoption after a view change may transiently exceed the
  /// inflight window — recovered instances must all restart).
  struct FlowStats {
    std::size_t pending_depth = 0;
    std::size_t pending_hwm = 0;       ///< high watermark of the pending queue
    std::uint64_t pending_admitted = 0;
    std::uint64_t shed = 0;            ///< values refused a pending slot
    std::size_t inflight_depth = 0;
    std::size_t inflight_hwm = 0;
    std::size_t window = 0;            ///< current adaptive inflight cap
    std::uint64_t busy_received = 0;   ///< MsgBusy pushbacks to own proposals
  };

  RingHandler(runtime::Node& host, coord::Registry& registry, GroupId ring,
              RingParams params, DeliverFn deliver);

  GroupId ring() const { return ring_; }
  const RingParams& params() const { return params_; }
  const coord::RingView& view() const { return view_; }
  bool is_coordinator() const;
  bool is_acceptor() const;
  Round round() const { return coord_.round; }
  InstanceId next_delivery() const { return next_delivery_; }
  storage::AcceptorLog* log() { return log_.get(); }

  void set_trimmed_gap_handler(TrimmedGapFn fn) { on_trimmed_gap_ = std::move(fn); }
  void set_own_delivered(OwnDeliveredFn fn) { on_own_delivered_ = std::move(fn); }

  /// Detaches this handler from the ring: resigns any coordinator role,
  /// stops watching the registry, and turns every message/timer path into a
  /// no-op. The object stays alive (its periodic timers still fire inertly)
  /// so the host can drop its reference without dangling callbacks — this
  /// is the "leave a ring while the node keeps running" half of dynamic
  /// subscriptions.
  void detach();
  /// True once detach() ran.
  bool detached() const { return detached_; }

  /// Multicasts a payload to this ring's group. The value is forwarded along
  /// the ring to the coordinator and retried until a decision with its value
  /// id is observed.
  ValueId propose(Payload payload);

  /// Handles a ring message (host demultiplexed by ring id already).
  void handle(ProcessId from, const runtime::Message& m);

  /// View change notification from the registry.
  void on_view(const coord::RingView& v);

  /// Sets the next instance to deliver (recovering replica installs its
  /// checkpoint tuple); discards buffered decisions below.
  void set_delivery_floor(InstanceId next);

  /// Requests retransmission of [next_delivery, hi) immediately (recovery).
  void request_retransmission(InstanceId hi);

  /// Demand-driven skip: a learner's merge is stalled on this ring while
  /// other rings hold decided instances, so the ring should skip up to
  /// (excluding) `upto` now instead of at the next rate-leveling tick. The
  /// coordinator records the highest demand and proposes one skip range
  /// ending there once no value is pending or in flight and its previous
  /// demand skip is delivered; any other member sends MsgSkipDemand to the
  /// coordinator, once per higher `upto`.
  /// Stale demands are no-ops, and nothing happens with rate leveling off
  /// (lambda == 0).
  void request_skip(InstanceId upto);

  /// Registry tells this (future) acceptor to catch up from `sources`'
  /// acceptor logs before the quorum basis switches (see
  /// coord/registry.hpp acceptor reconfiguration).
  void on_acceptor_prep(const coord::MsgAcceptorPrep& m);
  /// True while an acceptor-log catch-up is in progress.
  bool catching_up() const { return catching_up_; }

  // --- statistics (benches/tests) ---
  std::uint64_t decided_count() const { return decided_count_; }
  std::uint64_t skip_count() const { return skips_decided_; }
  std::size_t buffered() const { return decided_buffer_.size(); }
  InstanceId decision_hint() const { return pending_decision_hint_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  FlowStats flow_stats() const;

 private:
  friend class CoordinatorOps;

  /// One undecided proposed instance: the value plus its retry stamp.
  /// (Previously two parallel std::maps; instance ids are dense, so this
  /// lives in a flat InstanceMap window.)
  struct Inflight {
    paxos::Value value;
    TimeNs proposed_at = 0;
  };

  struct CoordinatorState {
    bool active = false;
    bool phase1_done = false;
    Round round = 0;
    InstanceId next_instance = 0;
    std::deque<paxos::Value> pending;          // waiting for window (bounded)
    InstanceMap<Inflight> inflight;            // proposed, undecided
    std::size_t window = 0;                    // adaptive inflight cap
    std::size_t inflight_hwm = 0;
    QueueStats pending_stats;                  // depth hwm + admitted/shed
    std::map<ProcessId, MsgPhase1B> phase1_replies;
    std::unordered_set<ValueId, ValueIdHash> known_ids;  // dedup (bounded)
    std::deque<ValueId> known_order;
    std::uint64_t interval_value_instances = 0;  // rate-leveling counter
    InstanceId demanded_upto = 0;  // highest skip demand not yet served
    InstanceId demand_hold = 0;  // demand skips wait until this is delivered
  };

  struct OwnProposal {
    paxos::Value value;
    TimeNs sent_at = 0;
    std::uint32_t busy_attempts = 0;  // consecutive MsgBusy pushbacks
    TimeNs next_retry = 0;            // backoff gate for the retry tick
  };

  // --- member/acceptor paths (ring_process.cpp) ---
  void handle_proposal(const MsgProposal& m);
  void handle_phase2(ProcessId from, const MsgPhase2& m);
  void phase2_accepted(MsgPhase2 out);
  void handle_decision(const MsgDecision& m);
  void handle_retransmit_req(ProcessId from, const MsgRetransmitReq& m);
  void handle_retransmit_reply(const MsgRetransmitReply& m);
  void handle_log_sync_req(ProcessId from, const MsgLogSyncReq& m);
  void handle_log_sync_reply(ProcessId from, const MsgLogSyncReply& m);
  void apply_acceptor_view();
  void catchup_request_next();
  void handle_trim(const MsgTrim& m);
  void handle_busy(const MsgBusy& m);
  void apply_busy(const ValueId& id, TimeNs retry_after);
  void resend_own(OwnProposal& p);
  void proposal_retry_tick();
  void learn(InstanceId instance, const paxos::Value& value);
  void flush_ordered();
  void check_gap();
  void forward(runtime::MessagePtr m);
  ProcessId successor() const;
  int acceptor_bit() const;
  std::uint64_t own_vote_bit() const;
  ValueId next_value_id();

  // --- coordinator paths (coordinator.cpp) ---
  void become_coordinator();
  void resign_coordinator();
  void handle_phase1a(ProcessId from, const MsgPhase1A& m);
  void handle_phase1b(const MsgPhase1B& m);
  void maybe_finish_phase1();
  void coordinator_enqueue(paxos::Value v);
  void shed_value(const paxos::Value& v);
  void drain_pending();
  void start_instance(InstanceId instance, paxos::Value v);
  void coordinator_on_decision(InstanceId instance, const paxos::Value& v);
  void rate_level_tick();
  void skip_on_demand();
  void retry_tick();
  void remember_id(const ValueId& id);

  runtime::Node& host_;
  coord::Registry& registry_;
  GroupId ring_;
  RingParams params_;
  DeliverFn deliver_;
  TrimmedGapFn on_trimmed_gap_;
  OwnDeliveredFn on_own_delivered_;

  coord::RingView view_;
  std::unique_ptr<storage::AcceptorLog> log_;  // present iff configured acceptor
  bool configured_acceptor_ = false;
  bool detached_ = false;
  std::shared_ptr<bool> attached_;  // gates the periodic timer chains
  int configured_acceptor_index_ = -1;

  // Learner state: values seen (from Phase 2), decisions buffered until
  // contiguous, and the ordered-delivery watermark. Both caches are flat
  // windows over the dense instance range above the delivery floor.
  InstanceMap<paxos::Value> value_cache_;
  InstanceMap<paxos::Value> decided_buffer_;
  std::set<InstanceId> decisions_without_value_;  // decision beat the value
  InstanceId next_delivery_ = 0;
  InstanceId pending_decision_hint_ = 0;  // highest decided instance heard + 1
  TimeNs last_progress_ = 0;
  InstanceId skip_demand_sent_ = 0;  // highest MsgSkipDemand::upto sent to
                                     // the current coordinator
  bool retransmit_inflight_ = false;
  std::size_t retransmit_cursor_ = 0;  // current target; moves on no progress

  // Acceptor-log catch-up (joining acceptor): drains the UNION of all
  // sources' logs sequentially, then reports acceptor_synced to the
  // registry. Re-requests ride the proposal_retry tick; stale replies are
  // dropped by (seq, from) matching.
  bool catching_up_ = false;
  std::uint64_t catchup_seq_ = 0;
  std::vector<ProcessId> catchup_sources_;
  std::size_t catchup_cursor_ = 0;   // index into catchup_sources_
  InstanceId catchup_from_ = 0;      // next instance to request

  // Proposer state. The value-id sequence lives in the runtime's
  // crash-surviving stable storage: ValueId uniqueness must hold across process restarts, or
  // a recovered proposer's fresh values would collide with its pre-crash ids
  // and be suppressed as duplicates by every learner that saw the originals.
  std::uint64_t* next_seq_ = nullptr;
  std::unordered_map<ValueId, OwnProposal, ValueIdHash> own_proposals_;

  CoordinatorState coord_;

  std::uint64_t decided_count_ = 0;
  std::uint64_t skips_decided_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t busy_received_ = 0;
};

}  // namespace mrp::ringpaxos
