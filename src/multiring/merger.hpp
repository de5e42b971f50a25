// Deterministic merge (Section 4), with epoch-aware group membership.
//
// A learner subscribed to several groups delivers the decision streams of
// those groups round-robin in increasing group-id order, M consensus
// instances at a time. All learners with the same subscription set therefore
// produce the identical merged sequence — the property MRP's atomic
// multicast order rests on.
//
// Skip instances (rate leveling) consume merge quota but are not delivered
// to the application. A skip-range value covers `skip_count` consecutive
// instances and is consumed instance by instance — a range larger than the
// remaining M-window spills into the group's subsequent turns, so every
// group advances at the same instance rate regardless of how skips are
// packed into messages (all learners apply the same rule: determinism).
//
// The merger also exposes the checkpoint tuple (next-undelivered instance
// per group) and reports merge-round boundaries; checkpoints are taken only
// at boundaries so that tuples of same-partition replicas are totally
// ordered (Predicate 1 of Section 5.2).
//
// Dynamic subscriptions: a group's stream can be activated (add_group) or
// retired (remove_group) while the merger runs. Activations splice in at
// the next merge-round boundary; retirements take effect when the group's
// turn next arrives (so a stream whose handler already left cannot stall
// the merge). Both are agreement points all learners of a partition share:
// if every replica requests the same change at the same point of its
// delivery sequence (e.g. when executing an ordered control command), all
// merged sequences stay identical. Decisions arriving for a group that is
// queued for activation buffer without consuming merge quota until the
// activation boundary.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "paxos/paxos.hpp"
#include "storage/checkpoint_store.hpp"

namespace mrp::multiring {

class DeterministicMerger {
 public:
  /// deliver(group, instance, value): application-visible messages only
  /// (skips filtered), in the deterministic merge order.
  using DeliverFn =
      std::function<void(GroupId, InstanceId, const paxos::Value&)>;
  /// Invoked every time a full round (M instances from every group) ends.
  using BoundaryFn = std::function<void()>;

  /// `groups` may be empty: a merger with no active group delivers nothing
  /// until add_group activates one (dynamic-subscription nodes start here).
  DeterministicMerger(std::vector<GroupId> groups, std::uint32_t m,
                      DeliverFn deliver);

  void set_boundary_hook(BoundaryFn fn) { on_boundary_ = std::move(fn); }

  /// Feeds one decided instance of `group`. Must be called in instance order
  /// per group with contiguous coverage (RingHandler guarantees this).
  /// `group` must be active or queued for activation.
  void on_decision(GroupId group, InstanceId instance, const paxos::Value& v);

  /// Activates `group`'s stream at the next merge-round boundary
  /// (immediately when already at one), expecting its first instance to be
  /// `start_instance` (a joiner bootstrapping from a checkpoint installs
  /// the checkpoint's entry here). Deterministic across a partition iff all
  /// replicas call it at the same point of the merged sequence.
  void add_group(GroupId group, InstanceId start_instance = 0);

  /// Retires `group`'s stream: it leaves the rotation the moment its turn
  /// (re-)arrives — it owes no further merge quota, so a stream whose
  /// handler already detached cannot stall the merge — and its buffered
  /// decisions are discarded. Deterministic across a partition iff all
  /// replicas call it at the same point of the merged sequence.
  void remove_group(GroupId group);

  /// Pauses application delivery (decisions buffer); used while a replica
  /// writes a checkpoint synchronously.
  void pause();
  /// Restarts delivery and drains whatever buffered while paused.
  void resume();
  /// True while delivery is paused.
  bool paused() const { return paused_; }

  /// Checkpoint tuple: next instance of each *active* group not yet merged.
  storage::CheckpointTuple tuple() const;

  /// Installs a checkpoint tuple: per-group cursors jump forward and the
  /// round-robin cursor resets to the first group (a round boundary).
  /// Buffered decisions below the new cursors are discarded. Entries for
  /// groups this merger does not know are ignored (a checkpoint can predate
  /// a retirement); active groups missing from the tuple keep their cursor
  /// (the checkpoint can predate an activation).
  void install_tuple(const storage::CheckpointTuple& t);

  /// True exactly between merge rounds (checkpoints are taken only here, so
  /// same-partition tuples are totally ordered — Predicate 1, Section 5.2).
  bool at_round_boundary() const {
    return cursor_ == 0 && consumed_ == 0;
  }

  /// Completed merge rounds since construction (the group-change epoch
  /// counter: activations/retirements take effect at round boundaries).
  std::uint64_t round() const { return rounds_; }

  /// Active subscribed groups in merge (ascending group-id) order.
  const std::vector<GroupId>& groups() const { return groups_; }
  /// The merge window M: consensus instances taken per group per turn.
  std::uint32_t m() const { return m_; }
  /// Application-visible deliveries so far (skips excluded).
  std::uint64_t delivered() const { return delivered_; }
  /// Instances consumed silently from skip ranges (rate leveling) so far.
  std::uint64_t skipped_instances() const { return skipped_; }

  /// Group the merger is currently waiting on (diagnostics); kNoGroup (-1)
  /// when no group is active.
  GroupId waiting_on() const {
    return groups_.empty() ? GroupId{-1} : groups_[cursor_];
  }

  /// A stalled group and the instances it owes before the merge can drain
  /// what the other groups already decided.
  struct Demand {
    GroupId group = -1;
    std::uint64_t owed = 0;
  };
  /// Demand-driven skipping (Mencius-style): reports the group at the cursor
  /// when it has nothing buffered, the merger is not paused, and other
  /// active groups hold decided-but-unmerged instances. `owed` is just
  /// enough instances from the stalled group to let every peer deliver its
  /// backlog: the rest of its current turn plus one full turn per further
  /// M instances of the largest backlog (at a round boundary, the largest
  /// backlog rounded up to M).
  std::optional<Demand> demand() const;

 private:
  struct GroupState {
    std::deque<std::pair<InstanceId, paxos::Value>> queue;
    InstanceId next = 0;  // next instance expected from the ring handler
    std::uint64_t front_consumed = 0;  // consumed prefix of a skip range
  };

  void pump();
  GroupState& state_for(GroupId group);
  GroupState* find_state(GroupId group);
  void apply_pending_adds();
  bool marked_for_removal(GroupId group) const;
  void cross_boundary();
  void retire_marked_at_cursor();

  std::vector<GroupId> groups_;  // active groups, sorted ascending
  std::uint32_t m_;
  DeliverFn deliver_;
  BoundaryFn on_boundary_;
  // Per-group state, parallel to groups_ (sorted flat layout: the cursor
  // walk and the per-decision binary search touch contiguous memory).
  std::vector<GroupState> state_;
  // Groups awaiting activation at the next boundary (buffer decisions) and
  // groups awaiting retirement.
  std::vector<std::pair<GroupId, GroupState>> pending_adds_;
  std::vector<GroupId> pending_removes_;
  std::size_t cursor_ = 0;       // index into groups_
  std::uint64_t consumed_ = 0;   // instances consumed in current M-window
  std::uint64_t rounds_ = 0;     // completed merge rounds
  bool paused_ = false;
  bool pumping_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace mrp::multiring
