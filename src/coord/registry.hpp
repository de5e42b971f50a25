// Coordination service — the repo's stand-in for the paper's Zookeeper.
//
// The paper delegates ring configuration, coordinator election and the
// partitioning schema to Zookeeper and treats it as reliable. We implement
// the same interface as an environment-attached oracle service:
//   * ring views: epoch-numbered membership lists with a designated
//     coordinator; processes watch a ring and receive MsgViewChange
//     notifications over the simulated network (like ZK watches),
//   * failure detection: the registry polls liveness every fd_interval, so
//     detection lag is bounded by one interval (a perfect failure detector
//     with bounded delay — sufficient after GST in the paper's model),
//   * election: sticky — the current coordinator is kept while alive,
//     otherwise the first alive acceptor in configured ring order takes over,
//   * subscriptions: learners register the set of groups they deliver;
//     replicas with equal subscription sets form a partition (Section 5.2).
//     Every change bumps the node's subscription epoch and is published to
//     subscription watchers as MsgSubChange,
//   * schemas: versioned key/value metadata (the services' partition
//     schema). publish_schema bumps the key's version and notifies schema
//     watchers with MsgSchemaChange — the watch-style pattern ring views
//     use, which is what makes online scale-out observable,
//   * dynamic membership: rings can gain (and shed) non-acceptor members
//     while serving traffic; every change is a new epoch-numbered view,
//   * acceptor reconfiguration: the quorum basis itself can grow, shrink
//     and replace members under an epoch-fenced acceptor view — a joiner
//     catches up from the alive acceptors' logs (MsgAcceptorPrep handshake)
//     before the basis switches, so activation happens at a safe boundary,
//   * self-healing: per-ring failure-detector params (FdParams) can mark an
//     acceptor permanently suspect after a grace period and automatically
//     replace it from a standby pool — the ring returns to full quorum
//     health without operator action.
//
// View epochs are monotonically increasing per ring and double as Paxos
// round numbers, so a newly elected coordinator always owns a higher round
// than any predecessor. Every acceptor-view bump is also an epoch bump,
// which forces coordinator re-election under the new quorum basis.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <mutex>

#include "common/types.hpp"
#include "runtime/message.hpp"
#include "runtime/runtime.hpp"

namespace mrp::sim {
class Env;
}

namespace mrp::coord {

/// Sender id used for registry notifications; not a registered process (the
/// registry models an always-available external ensemble). Thread-backend
/// deployments register their registry actor under this id.
constexpr ProcessId kRegistrySender = -100;

/// A ring view: the alive members of a ring at some epoch, in ring order.
///
/// `acceptor_view` numbers the quorum basis: it bumps (together with the
/// epoch) on every acceptor add/remove/replace and fences every Phase 1/2
/// message — acceptors vote only on messages stamped with their own
/// acceptor view, so no vote bitmask ever mixes two bases.
/// `configured_acceptors` is the sorted basis itself; an acceptor's vote
/// bit is its index in this vector.
struct RingView {
  GroupId ring = -1;
  std::uint64_t epoch = 0;
  std::uint64_t acceptor_view = 0;   // quorum-basis generation (>= 1)
  std::vector<ProcessId> members;    // alive members, configured ring order
  std::vector<ProcessId> acceptors;  // alive acceptors, configured ring order
  std::vector<ProcessId> configured_acceptors;  // sorted; vote-bit basis
  std::size_t total_acceptors = 0;   // == configured_acceptors.size()
  ProcessId coordinator = kNoProcess;

  std::size_t quorum() const { return total_acceptors / 2 + 1; }
  bool contains(ProcessId p) const;
  bool is_acceptor(ProcessId p) const;
  /// Next alive member after p in ring order (wraps). p must be a member.
  ProcessId successor(ProcessId p) const;
};

/// Per-ring failure-detector tuning. A ring with a custom interval (or
/// jitter) gets its own self-rescheduling suspect timer chain instead of
/// riding the registry-wide poll; the jitter fraction desynchronises
/// simultaneous suspicion storms across rings (deterministic under the
/// seeded Rng — common/backoff.hpp).
struct FdParams {
  TimeNs interval = 0;       ///< poll period; 0 = registry-wide default
  double jitter = 0.0;       ///< jittered fraction of the interval, [0, 1]
  TimeNs suspect_grace = 0;  ///< dead this long => permanently suspect
  bool auto_heal = false;    ///< replace permanently-suspect acceptors
};

/// Configuration of one ring (one multicast group). The member list can
/// grow/shrink at runtime (add_ring_member / remove_ring_member), and the
/// acceptor set itself is reconfigurable: add_acceptor / remove_acceptor /
/// replace_acceptor change the quorum basis under an epoch-fenced acceptor
/// view, with log catch-up before a joiner activates. `standbys` is the
/// pool automatic healing draws replacements from.
struct RingConfig {
  GroupId ring = -1;
  std::vector<ProcessId> order;      // full configured ring order
  std::set<ProcessId> acceptors;     // subset of order; current quorum basis
  std::vector<ProcessId> standbys;   // replacement pool for auto-heal
  FdParams fd;                       // per-ring failure-detector tuning
};

/// A versioned schema entry (the services' partition schema). Version 0
/// means "never published".
struct SchemaEntry {
  std::uint64_t version = 0;
  std::string encoded;
};

constexpr int kMsgViewChange = 600;
constexpr int kMsgSchemaChange = 601;
constexpr int kMsgSubChange = 602;
constexpr int kMsgAcceptorPrep = 603;

struct MsgViewChange : runtime::Message {
  RingView view;
  int kind() const override { return kMsgViewChange; }
  std::size_t wire_size() const override {
    return 32 + view.members.size() * 8;
  }
};

/// Registry -> joining acceptor: catch up from the listed sources' acceptor
/// logs, then confirm with Registry::acceptor_synced(ring, self, seq). The
/// sources are every alive configured acceptor at the time the change began
/// — the joiner must drain the UNION of their logs: with a simultaneous
/// remove+add the old and new majorities need not intersect, so only the
/// union of all alive logs is guaranteed to cover every decided instance.
/// Re-sent on every failure-detector tick while the change is pending
/// (receivers dedup by seq).
struct MsgAcceptorPrep : runtime::Message {
  GroupId ring = -1;
  std::uint64_t seq = 0;             // change-attempt id (registry-global)
  std::vector<ProcessId> sources;    // alive acceptors to drain
  int kind() const override { return kMsgAcceptorPrep; }
  std::size_t wire_size() const override { return 24 + sources.size() * 8; }
};

/// Watch notification: schema `key` is now at `entry.version`.
struct MsgSchemaChange : runtime::Message {
  std::string key;
  SchemaEntry entry;
  int kind() const override { return kMsgSchemaChange; }
  std::size_t wire_size() const override {
    return 24 + key.size() + entry.encoded.size();
  }
};

/// Watch notification: `process` changed its subscription set (epoch is the
/// node's per-process subscription epoch).
struct MsgSubChange : runtime::Message {
  ProcessId process = kNoProcess;
  std::uint64_t epoch = 0;
  std::vector<GroupId> groups;
  int kind() const override { return kMsgSubChange; }
  std::size_t wire_size() const override { return 24 + groups.size() * 4; }
};

class Registry {
 public:
  /// fd_interval bounds failure-detection (and recovery-detection) lag.
  /// The runtime is the registry's host actor (an oracle: it only sends).
  explicit Registry(runtime::Runtime& rt,
                    TimeNs fd_interval = 100 * kMillisecond);

  /// Sim convenience: hosts the registry on the Env's oracle runtime for
  /// kRegistrySender (defined in registry_sim.cpp, the only sim-coupled TU).
  explicit Registry(sim::Env& env, TimeNs fd_interval = 100 * kMillisecond);

  // --- rings & views ---

  /// Registers a new ring. The initial view (epoch 1) optimistically
  /// contains every configured member; the failure-detector poll prunes
  /// anything that never comes up.
  void create_ring(const RingConfig& config);
  /// The current (most recent) view of `ring`.
  const RingView& current_view(GroupId ring) const;
  /// The ring's configured membership (including crashed members).
  const RingConfig& config(GroupId ring) const;
  /// How long the failure detector may take to drop a crashed member of
  /// `ring` from its view: one poll period (the ring's own, or the
  /// registry-wide fd_interval).
  TimeNs detection_bound(GroupId ring) const;
  /// Ids of every registered ring.
  std::vector<GroupId> rings() const;

  /// Adds `p` to the ring's member order (appended at the tail) while the
  /// ring serves traffic and publishes the change as a new view. Dynamic
  /// members are never acceptors: the quorum basis stays fixed, so no Paxos
  /// reconfiguration is needed — this is how a scale-out replica joins an
  /// existing ring's decision stream.
  void add_ring_member(GroupId ring, ProcessId p);

  /// Removes a dynamic (non-acceptor) member from the ring order and
  /// publishes the change as a new view.
  void remove_ring_member(GroupId ring, ProcessId p);

  // --- acceptor-set reconfiguration (epoch-fenced views) ---

  /// Begins adding `p` to the ring's quorum basis. `p` is appended to the
  /// ring order if not already a member, then catches up from the alive
  /// acceptors' logs (MsgAcceptorPrep handshake); the basis changes — and a
  /// new acceptor view + epoch is published — only once `p` confirms via
  /// acceptor_synced. Only one acceptor-set change may be pending per ring.
  void add_acceptor(GroupId ring, ProcessId p);

  /// Removes `p` from the quorum basis immediately (single-step shrink is
  /// intersection-safe: any old and new majority share an acceptor, so no
  /// catch-up is needed). `p` stays a ring member (a learner) if alive.
  /// At least one acceptor must remain.
  void remove_acceptor(GroupId ring, ProcessId p);

  /// Begins replacing `dead` with `standby` (one pending change at a time).
  /// Requires enough alive acceptors that every old majority intersects the
  /// alive set — the union of alive logs then covers every decided
  /// instance, which is what makes the simultaneous remove+add safe even
  /// though old and new majorities may be disjoint. `standby` catches up
  /// from that union before the basis changes; `dead` leaves the ring
  /// order entirely when the change activates.
  void replace_acceptor(GroupId ring, ProcessId dead, ProcessId standby);

  /// Adds `p` to the ring's standby pool (auto-heal replacement candidates).
  /// `p` should already be a ring member (a learner following the decision
  /// stream) so it can start catch-up the moment it is drafted.
  void add_standby(GroupId ring, ProcessId p);

  /// Joining acceptor's confirmation that it drained every source log of
  /// change-attempt `seq`. Activates the pending change: the new quorum
  /// basis is published under a bumped acceptor view + epoch. Ignores
  /// stale/unknown (ring, p, seq) combinations (a restarted change attempt
  /// has a fresh seq).
  void acceptor_synced(GroupId ring, ProcessId p, std::uint64_t seq);

  /// Current acceptor-view number of `ring` (1 = initial basis).
  std::uint64_t acceptor_view(GroupId ring) const;
  /// Remaining standby pool of `ring`.
  std::vector<ProcessId> standbys(GroupId ring) const;
  /// True while an acceptor-set change is pending (catch-up in progress).
  bool change_pending(GroupId ring) const;
  /// Completed automatic heals (acceptor replacements) across all rings.
  std::uint64_t heal_count() const;

  /// Registers p as a watcher: it receives the current view immediately and
  /// a MsgViewChange whenever the view changes. Watches survive crashes of
  /// the watcher (the view is re-sent when it rejoins).
  void watch_ring(GroupId ring, ProcessId p);

  /// Removes p's watch on `ring` (a detached handler stops being notified).
  void unwatch_ring(GroupId ring, ProcessId p);

  // --- subscriptions & partitions ---

  /// Registers the set of groups `p` delivers. Bumps p's subscription epoch
  /// and notifies subscription watchers with MsgSubChange.
  void set_subscriptions(ProcessId p, std::vector<GroupId> groups);
  /// The groups `p` registered (sorted ascending).
  std::vector<GroupId> subscriptions(ProcessId p) const;
  /// How many times `p` changed its subscription set (0 = never set).
  std::uint64_t subscription_epoch(ProcessId p) const;
  /// All processes that subscribed to `group`.
  std::vector<ProcessId> subscribers(GroupId group) const;
  /// Processes with exactly the same subscription set as p (including p).
  std::vector<ProcessId> partition_peers(ProcessId p) const;
  /// Registers `watcher` for MsgSubChange notifications on every
  /// subscription change of any process.
  void watch_subscriptions(ProcessId watcher);

  // --- versioned schemas (partitioning schema etc.) ---

  /// Publishes a new value for schema `key`: bumps the key's version and
  /// notifies schema watchers with MsgSchemaChange. Returns the new version.
  std::uint64_t publish_schema(const std::string& key,
                               const std::string& encoded);
  /// The current versioned entry for `key` (version 0 if never published).
  /// Synchronous read — models the ZK client's cached read path.
  const SchemaEntry& schema(const std::string& key) const;
  /// Registers `watcher` for MsgSchemaChange on `key`; the current entry is
  /// sent immediately if one exists.
  void watch_schema(const std::string& key, ProcessId watcher);

  // --- legacy unversioned metadata ---
  void set_meta(const std::string& key, const std::string& value);
  std::string get_meta(const std::string& key) const;

  /// Forces an immediate liveness check (tests use this to avoid waiting a
  /// full fd interval).
  void check_now();

 private:
  /// One in-flight acceptor-set change (at most one per ring): the joiner
  /// `add` drains `sources` and confirms with seq; `remove` leaves the
  /// basis at activation (kNoProcess for a pure add).
  struct PendingChange {
    bool active = false;
    std::uint64_t seq = 0;
    ProcessId add = kNoProcess;
    ProcessId remove = kNoProcess;
    bool drop_removed_member = false;  // auto-heal: dead node leaves order
    bool from_auto_heal = false;
    std::vector<ProcessId> sources;
  };

  struct RingState {
    RingConfig config;
    RingView view;
    std::uint64_t acceptor_view = 1;
    std::set<ProcessId> watchers;
    std::set<ProcessId> notified;  // watchers already at view.epoch
    PendingChange pending;
    std::map<ProcessId, TimeNs> suspect_since;  // dead acceptors, first seen
  };
  struct SchemaState {
    SchemaEntry entry;
    std::set<ProcessId> watchers;
  };

  void poll();
  void poll_ring(RingState& rs);
  void recompute(RingState& rs);
  void notify(RingState& rs);
  void bump_view(RingState& rs);
  void arm_ring_fd(GroupId ring);
  void begin_change(RingState& rs, ProcessId add, ProcessId remove,
                    bool drop_removed_member, bool from_auto_heal);
  void send_prep(RingState& rs);
  void check_pending(RingState& rs);
  void check_suspects(RingState& rs);
  bool acceptor_alive_majority_safe(const RingState& rs,
                                    ProcessId removing) const;
  static RingView build_view(const RingConfig& cfg,
                             const std::set<ProcessId>& alive,
                             std::uint64_t epoch, std::uint64_t acceptor_view,
                             ProcessId sticky_coord);

  runtime::Runtime& rt_;
  TimeNs fd_interval_;
  std::uint64_t change_seq_ = 0;  // change-attempt ids, registry-global
  std::uint64_t heal_count_ = 0;
  // On the thread backend, watch/set/publish calls arrive from every node's
  // loop thread while the fd tick runs on the registry's own; one mutex
  // serializes them (uncontended and free on the sim backend). Public
  // methods lock, private helpers assume the lock is held.
  mutable std::mutex mu_;
  std::map<GroupId, RingState> rings_;
  std::map<ProcessId, std::vector<GroupId>> subscriptions_;
  std::map<ProcessId, std::uint64_t> sub_epochs_;
  std::set<ProcessId> sub_watchers_;
  std::map<std::string, SchemaState> schemas_;
  std::map<std::string, std::string> meta_;
};

}  // namespace mrp::coord
