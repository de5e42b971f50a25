// ReplicaNode: a state-machine-replication replica on top of Multi-Ring
// Paxos (the paper's deployment pattern for both MRP-Store and dLog).
//
// The node is simultaneously:
//   * proposer — clients send MsgClientRequest; requests are batched per
//     group (up to batch_bytes, the paper's 32 KB) and multicast,
//   * learner — merged deliveries are decoded, deduplicated per session,
//     executed against the service StateMachine, and answered to the client
//     with a datagram-style MsgClientReply. Every replica executes and
//     caches the reply, but only one replica per partition sends it (see
//     "Replier" below). A *multi-group* command (one copy per addressed ring, same
//     (session, seq) identity) is gathered and executed exactly once, at
//     the merged position of the last subscribed addressed group to
//     deliver its copy — identical at every replica with the same group
//     set; partial subscribers commit at the last group of
//     (addressed ∩ subscribed),
//   * recovery participant — a Checkpointer snapshots state at merge-round
//     boundaries and a TrimProtocol instance drives acceptor-log trimming
//     for every group this node coordinates.
//
// Replier. A command committed at ring g is answered by one replica of each
// partition (registry partition = equal subscription set): the first member
// of the partition in ring order from g's quorum-crossing acceptor — the
// acceptor whose vote completes the Phase 2 quorum, counted from the
// coordinator along the view's alive acceptors. That acceptor announces
// the decision, so it and the members right after it learn every command
// before anyone else; on a partition ring the crosser itself replies, on
// the global ring each partition's first member after it does (so scans
// still collect one reply per partition), and acceptor-only members are
// skipped. Fail-open: with no view, no coordinator, no subscription entry,
// or this replica outside the view, the replica replies — a missing entry
// only ever adds replies. The answer is cached per ring, keyed on the view
// epoch and this replica's subscription set (no registry call per command).
// A duplicate is still answered from the reply cache by whichever replica
// sees it, so a lost reply costs at most one client retry_timeout. Two
// re-sends cover the cases where the replier never answers:
//   * takeover — when a view change makes this replica the replier in
//     place of another one, it re-sends, once, the cached reply of every
//     session whose last command committed on that ring within two
//     failure-detection periods before the change: it executed those under
//     the old view and left them to a replier that may have crashed before
//     answering (the registry drops a crashed member within one period; the
//     second covers a replier running behind this replica);
//   * checkpoint install — a replier that installs a checkpoint never
//     executes the commands it covers, which its peers left to it, so it
//     re-sends every session's cached reply once.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "multiring/node.hpp"
#include "recovery/checkpointing.hpp"
#include "recovery/trim.hpp"
#include "smr/command.hpp"
#include "smr/state_machine.hpp"

namespace mrp::smr {

struct ReplicaOptions {
  std::size_t batch_bytes = 32 * 1024;
  /// How long a partially filled batch may wait for more commands before it
  /// is multicast anyway. 0 = flush at the end of the current event batch:
  /// requests arriving in the same scheduler step still coalesce into one
  /// multicast, but nothing waits for wall-clock time.
  TimeNs batch_delay = 0;
  /// Minimum interval before this replica re-proposes a duplicate command
  /// it has already multicast (client retry suppression).
  TimeNs proposal_guard = kSecond;
  /// Per-group admission window (credit-based flow control): at most this
  /// many admitted-but-undelivered command bytes / commands per group —
  /// covering both the pending batch and every multicast batch the ring has
  /// not yet delivered back. An over-window client request earns a
  /// MsgClientBusy pushback instead of queueing without bound. 0 disables
  /// the respective cap.
  std::size_t admission_bytes = 4 * 1024 * 1024;
  std::size_t admission_commands = 16 * 1024;
  /// retry_after floor sent with MsgClientBusy pushback replies.
  TimeNs busy_retry_hint = 5 * kMillisecond;
  int partition_tag = 0;  // identifies this replica's partition in replies
  recovery::CheckpointerOptions checkpoint;
  recovery::TrimOptions trim;
};

class ReplicaNode : public multiring::MultiRingNode {
 public:
  ReplicaNode(runtime::Runtime& rt, coord::Registry* registry,
              multiring::NodeConfig config, StateMachineFactory factory,
              ReplicaOptions options);

  /// Sim convenience: binds to the Env's runtime adapter for `id` (defined
  /// in smr_sim.cpp, the only sim-coupled TU of this module).
  ReplicaNode(sim::Env& env, ProcessId id, coord::Registry* registry,
              multiring::NodeConfig config, StateMachineFactory factory,
              ReplicaOptions options);

  void on_start() override;

  StateMachine& state_machine() { return *sm_; }
  const recovery::Checkpointer& checkpointer() const { return *checkpointer_; }
  recovery::Checkpointer& checkpointer() { return *checkpointer_; }
  recovery::TrimProtocol& trim_protocol() { return *trim_; }
  std::uint64_t executed() const { return executed_; }

  /// Snapshot of one group's admission window (credit-based flow control).
  struct AdmissionStats {
    std::size_t outstanding_commands = 0;  ///< admitted, not yet delivered
    std::size_t outstanding_bytes = 0;
    std::size_t commands_hwm = 0;          ///< high watermark of the above
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;                ///< MsgClientBusy pushbacks sent
  };
  AdmissionStats admission_stats(GroupId group) const;

  /// Size of the exact session-dedup record: the sessions it tracks and
  /// the most executed seqs any one of them holds above its floor.
  struct DedupStats {
    std::size_t sessions = 0;
    std::size_t above_floor_max = 0;
  };
  DedupStats dedup_stats() const;

 protected:
  void on_app_message(ProcessId from, const runtime::Message& m) override;
  void on_trimmed_gap(GroupId group, InstanceId trimmed_to) override;
  void on_own_value_delivered(GroupId group, const paxos::Value& v) override;
  void on_ring_view(GroupId group) override;

  /// Applies one ordered command to the service state machine (called in
  /// delivery order, after session dedup). Subclasses interpose here for
  /// routing validation and ordered control commands (e.g. MRP-Store's
  /// partition split); the default delegates to StateMachine::apply.
  virtual Bytes apply_command(GroupId group, const Command& c);

  /// The replica's configured options (subclasses read partition_tag etc.).
  const ReplicaOptions& replica_options() const { return options_; }

 private:
  struct Session {
    // Exact execution record. Multi-group commands commit only when every
    // subscribed addressed group has delivered its copy, so a replica
    // subscribed to several addressed groups can execute a session's
    // commands out of seq order (a later single-group command overtakes a
    // still-gathering multi-group one). A plain high-watermark would then
    // silently drop the overtaken command, so dedup is a floor (every seq
    // <= floor executed) plus the sparse set of executed seqs above it.
    // The set stays tiny: a client session numbers its requests 1, 2, 3,
    // ... and sends them all to one destination group set, so every
    // replica serving the session delivers each seq and the floor closes
    // up behind the few commands a multi-group gather lets overtake.
    std::uint64_t exec_floor = 0;
    std::set<std::uint64_t> exec_above;
    std::uint64_t last_seq = 0;  // highest executed (reply-cache key)
    Bytes last_reply;
    // Ring last_seq committed at (-1 = unknown), and when this replica
    // executed it and left the reply to that ring's replier (0 = it
    // answered itself): a replier takeover re-sends the recently left
    // replies of that ring's sessions. Not in snapshots.
    GroupId last_group = -1;
    TimeNs left_at = 0;
    // Proposer-side duplicate suppression, per group: the highest seq this
    // replica has already multicast for the session on that ring, and when.
    // A retried command is re-proposed only after proposal_guard has
    // elapsed (covers the case where the original proposal died with a
    // coordinator). Per-group because one replica may legitimately act as
    // proposer for several rings of the same multi-group command.
    std::map<GroupId, std::pair<std::uint64_t, TimeNs>> proposed;

    bool executed(std::uint64_t seq) const {
      return seq <= exec_floor || exec_above.count(seq) > 0;
    }
    void mark_executed(std::uint64_t seq) {
      if (seq <= exec_floor) return;
      exec_above.insert(seq);
      while (exec_above.count(exec_floor + 1) > 0) {
        exec_above.erase(++exec_floor);
      }
    }
  };
  /// A multi-group command waiting for the copies from the rest of its
  /// subscribed addressed groups; keyed by command identity (session, seq).
  struct PendingMulti {
    Command command;
    std::set<GroupId> seen;  // subscribed addressed groups delivered so far
  };
  struct PendingBatch {
    Batch batch;
    std::size_t bytes = 0;
    bool timer_armed = false;
  };
  /// The replier of one ring for this replica's partition, valid while the
  /// ring's view epoch and this replica's subscription set are unchanged.
  struct ReplierCache {
    std::uint64_t epoch = 0;
    std::vector<GroupId> subscribed;
    ProcessId replier = kNoProcess;
  };
  /// Credit accounting for one group: commands admitted into the pipeline
  /// (pending batch + multicast-but-undelivered) and the gauge over them.
  struct GroupFlow {
    std::size_t commands = 0;
    std::size_t bytes = 0;
    QueueStats stats;
  };

  void deliver(GroupId group, InstanceId instance, const Payload& payload);
  void deliver_command(GroupId group, const Command& c);
  bool multi_gather_complete(const PendingMulti& pm) const;
  void execute(GroupId group, const Command& c);
  /// The replica that answers commands committed at `group` for this
  /// replica's partition (this replica itself when failing open).
  ProcessId replier(GroupId group);
  ProcessId compute_replier(GroupId group);
  void send_cached_reply(const Session& s, SessionId session,
                         std::uint64_t seq);
  /// Re-sends each session's cached last reply: every session's for
  /// `group` < 0, else those whose last command committed on `group` and
  /// was left to its replier at or after `since`.
  void resend_last_replies(GroupId group, TimeNs since);
  void enqueue_request(GroupId group, const Command& c);
  bool admit(GroupId group, const Command& c);
  void flush_batch(GroupId group);
  void multicast_batch(GroupId group, Batch batch);
  Bytes snapshot_state() const;
  void restore_state(const Bytes& data);

  StateMachineFactory factory_;
  ReplicaOptions options_;
  std::unique_ptr<StateMachine> sm_;
  std::unique_ptr<recovery::Checkpointer> checkpointer_;
  std::unique_ptr<recovery::TrimProtocol> trim_;
  std::unordered_map<SessionId, Session> sessions_;
  /// Multi-group commands delivered on some but not yet all of their
  /// subscribed addressed groups. Part of the replicated state: a
  /// checkpoint at a round boundary can fall between two copies of the
  /// same command, and deliveries below the installed tuple are never
  /// replayed, so the gather survives in snapshots.
  std::map<std::pair<SessionId, std::uint64_t>, PendingMulti> multi_pending_;
  std::map<GroupId, PendingBatch> pending_;
  std::map<GroupId, GroupFlow> flow_;
  /// Per multicast value: the command bytes/count whose credits it holds,
  /// returned when the ring delivers the value back (exactly once).
  std::map<std::pair<GroupId, ValueId>, std::pair<std::size_t, std::size_t>>
      outstanding_values_;
  std::map<GroupId, ReplierCache> repliers_;
  std::uint64_t executed_ = 0;
};

}  // namespace mrp::smr
