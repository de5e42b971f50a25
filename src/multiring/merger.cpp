#include "multiring/merger.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace mrp::multiring {

DeterministicMerger::DeterministicMerger(std::vector<GroupId> groups,
                                         std::uint32_t m, DeliverFn deliver)
    : groups_(std::move(groups)), m_(m), deliver_(std::move(deliver)) {
  MRP_CHECK(m_ >= 1);
  MRP_CHECK(deliver_ != nullptr);
  std::sort(groups_.begin(), groups_.end());
  MRP_CHECK_MSG(
      std::adjacent_find(groups_.begin(), groups_.end()) == groups_.end(),
      "duplicate group subscription");
  state_.resize(groups_.size());
}

DeterministicMerger::GroupState* DeterministicMerger::find_state(
    GroupId group) {
  auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
  if (it != groups_.end() && *it == group) {
    return &state_[static_cast<std::size_t>(it - groups_.begin())];
  }
  for (auto& [g, gs] : pending_adds_) {
    if (g == group) return &gs;
  }
  return nullptr;
}

DeterministicMerger::GroupState& DeterministicMerger::state_for(GroupId group) {
  GroupState* gs = find_state(group);
  MRP_CHECK_MSG(gs != nullptr, "group not subscribed");
  return *gs;
}

void DeterministicMerger::add_group(GroupId group, InstanceId start_instance) {
  MRP_CHECK_MSG(find_state(group) == nullptr, "group already subscribed");
  GroupState gs;
  gs.next = start_instance;
  if (!pumping_ && at_round_boundary()) {
    // Already between rounds: activate immediately (the construction-time /
    // bootstrap path).
    auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
    state_.insert(state_.begin() + (it - groups_.begin()), std::move(gs));
    groups_.insert(it, group);
    return;
  }
  pending_adds_.emplace_back(group, std::move(gs));
}

void DeterministicMerger::remove_group(GroupId group) {
  for (auto it = pending_adds_.begin(); it != pending_adds_.end(); ++it) {
    if (it->first == group) {
      pending_adds_.erase(it);  // never activated: nothing to retire
      return;
    }
  }
  auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
  MRP_CHECK_MSG(it != groups_.end() && *it == group, "group not subscribed");
  if (!pumping_ && at_round_boundary()) {
    state_.erase(state_.begin() + (it - groups_.begin()));
    groups_.erase(it);
    return;
  }
  MRP_CHECK_MSG(std::find(pending_removes_.begin(), pending_removes_.end(),
                          group) == pending_removes_.end(),
                "group already retiring");
  pending_removes_.push_back(group);
  pump();  // retire right away if the cursor already sits on the group
}

void DeterministicMerger::apply_pending_adds() {
  for (auto& [g, gs] : pending_adds_) {
    auto it = std::lower_bound(groups_.begin(), groups_.end(), g);
    state_.insert(state_.begin() + (it - groups_.begin()), std::move(gs));
    groups_.insert(it, g);
  }
  pending_adds_.clear();
}

bool DeterministicMerger::marked_for_removal(GroupId group) const {
  return std::find(pending_removes_.begin(), pending_removes_.end(), group) !=
         pending_removes_.end();
}

void DeterministicMerger::cross_boundary() {
  ++rounds_;
  if (!pending_adds_.empty()) apply_pending_adds();
  if (on_boundary_) on_boundary_();
}

void DeterministicMerger::retire_marked_at_cursor() {
  // A retiring group leaves the rotation the moment its turn (re-)arrives:
  // it owes no further quota, so a stream whose handler already detached
  // cannot stall the merge. Deterministic because the mark itself was
  // placed at an agreed point of the merged sequence.
  while (!groups_.empty() && marked_for_removal(groups_[cursor_])) {
    pending_removes_.erase(std::find(pending_removes_.begin(),
                                     pending_removes_.end(),
                                     groups_[cursor_]));
    state_.erase(state_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(cursor_));
    consumed_ = 0;
    if (cursor_ >= groups_.size()) {
      cursor_ = 0;
      cross_boundary();
    }
  }
}

void DeterministicMerger::on_decision(GroupId group, InstanceId instance,
                                      const paxos::Value& v) {
  GroupState& gs = state_for(group);
  const std::uint64_t span = std::max<std::uint64_t>(1, v.skip_count);
  if (instance + span <= gs.next) return;  // fully merged pre-checkpoint
  if (instance < gs.next) {
    // A skip range straddling the installed checkpoint tuple: the prefix
    // below gs.next was already reflected in the checkpoint; only the
    // suffix still consumes merge quota.
    MRP_CHECK_MSG(v.is_skip(), "non-skip values span one instance");
    paxos::Value suffix = v;
    suffix.skip_count = static_cast<std::uint32_t>(instance + span - gs.next);
    gs.queue.emplace_back(gs.next, suffix);
    gs.next = instance + span;
    pump();
    return;
  }
  MRP_CHECK_MSG(instance == gs.next,
                "ring handler must deliver contiguous instances");
  gs.next = instance + span;
  gs.queue.emplace_back(instance, v);
  pump();
}

void DeterministicMerger::pump() {
  if (paused_ || pumping_) return;
  pumping_ = true;
  for (;;) {
    if (!pending_removes_.empty()) retire_marked_at_cursor();
    if (groups_.empty()) break;
    GroupState& gs = state_[cursor_];
    if (gs.queue.empty()) break;  // stalled on this group
    auto& [instance, value] = gs.queue.front();
    const std::uint64_t span = std::max<std::uint64_t>(1, value.skip_count);
    if (value.is_skip()) {
      // A skip range is consumed instance by instance so that every group
      // advances at the same *instance* rate ("M consensus instances from
      // ring i"); a range larger than the remaining window spills into this
      // group's next turns.
      const std::uint64_t take =
          std::min(span - gs.front_consumed,
                   static_cast<std::uint64_t>(m_) - consumed_);
      gs.front_consumed += take;
      skipped_ += take;
      consumed_ += take;
    } else {
      ++delivered_;
      deliver_(groups_[cursor_], instance, value);
      gs.front_consumed = span;
      consumed_ += span;
    }
    if (gs.front_consumed >= span) {
      gs.queue.pop_front();
      gs.front_consumed = 0;
    }
    if (consumed_ >= m_) {
      consumed_ = 0;
      cursor_ = (cursor_ + 1) % groups_.size();
      if (cursor_ == 0) {
        // A full round completed: activations queued mid-round splice in at
        // the boundary (the one agreement point every partition peer
        // shares), then the boundary is reported.
        cross_boundary();
      }
    }
    if (paused_) break;
  }
  pumping_ = false;
}

std::optional<DeterministicMerger::Demand> DeterministicMerger::demand()
    const {
  if (paused_ || groups_.empty() || !state_[cursor_].queue.empty()) {
    return std::nullopt;
  }
  std::uint64_t backlog = 0;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const GroupState& gs = state_[i];
    if (i == cursor_ || gs.queue.empty() || marked_for_removal(groups_[i])) {
      continue;
    }
    // Decided but not yet merged: everything from the merged position (a
    // partially consumed skip range counts its consumed prefix as merged)
    // up to the next expected instance.
    const InstanceId merged = gs.queue.front().first + gs.front_consumed;
    backlog = std::max<std::uint64_t>(backlog, gs.next - merged);
  }
  if (backlog == 0) return std::nullopt;
  // The stalled group finishes its current turn, then takes one more full
  // turn per further M instances of the largest backlog (at a round
  // boundary: the backlog rounded up to M).
  const std::uint64_t turns = (backlog + m_ - 1) / m_;
  return Demand{groups_[cursor_], (m_ - consumed_) + (turns - 1) * m_};
}

void DeterministicMerger::pause() { paused_ = true; }

void DeterministicMerger::resume() {
  if (!paused_) return;
  paused_ = false;
  pump();
}

storage::CheckpointTuple DeterministicMerger::tuple() const {
  storage::CheckpointTuple t;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    // The tuple reflects what has been *merged*, not what is buffered:
    // buffered-but-unmerged decisions are replayable from the ring. A
    // partially consumed skip range counts its consumed prefix as merged.
    const GroupState& gs = state_[i];
    t[groups_[i]] = gs.queue.empty()
                        ? gs.next
                        : gs.queue.front().first + gs.front_consumed;
  }
  return t;
}

void DeterministicMerger::install_tuple(const storage::CheckpointTuple& t) {
  for (const auto& [g, next] : t) {
    // Tolerate entries for groups this merger no longer (or does not yet)
    // track: a checkpoint can predate a retirement or an activation.
    GroupState* gsp = find_state(g);
    if (gsp == nullptr) continue;
    GroupState& gs = *gsp;
    gs.front_consumed = 0;
    while (!gs.queue.empty()) {
      const auto& [instance, value] = gs.queue.front();
      const std::uint64_t span = std::max<std::uint64_t>(1, value.skip_count);
      if (instance + span <= next) {
        gs.queue.pop_front();  // fully below the checkpoint
      } else if (instance < next) {
        gs.front_consumed = next - instance;  // checkpoint mid-range
        break;
      } else {
        break;
      }
    }
    gs.next = std::max(gs.next, next);
  }
  cursor_ = 0;
  consumed_ = 0;
  // Installing a tuple lands the merger on a round boundary: queued
  // subscription changes take effect here (the bootstrap path of a joiner).
  if (!pumping_) {
    while (!pending_removes_.empty()) {
      const GroupId g = pending_removes_.back();
      pending_removes_.pop_back();
      auto it = std::lower_bound(groups_.begin(), groups_.end(), g);
      MRP_CHECK(it != groups_.end() && *it == g);
      state_.erase(state_.begin() + (it - groups_.begin()));
      groups_.erase(it);
    }
    if (!pending_adds_.empty()) apply_pending_adds();
  }
  pump();
}

}  // namespace mrp::multiring
