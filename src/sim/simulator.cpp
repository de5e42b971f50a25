#include "sim/simulator.hpp"

#include <utility>

#include "common/check.hpp"

namespace mrp::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {}

std::uint32_t Simulator::acquire_slot(runtime::Task fn) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    slots_[idx].fn = std::move(fn);
    return idx;
  }
  MRP_CHECK_MSG(slots_.size() < kNoSlot, "event queue exceeds 2^32 slots");
  slots_.push_back(Slot{std::move(fn), 0});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::schedule_at(TimeNs when, runtime::Task fn) {
  MRP_CHECK_MSG(when >= now_, "cannot schedule into the past");
  const Event e{when, next_seq_++, acquire_slot(std::move(fn))};
  if (when < horizon_) {
    near_.push_back(e);
    sift_up(near_.size() - 1);
  } else {
    far_.push_back(e);
  }
}

void Simulator::schedule_after(TimeNs delay, runtime::Task fn) {
  MRP_CHECK(delay >= 0);
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::sift_up(std::size_t i) {
  // Hole technique: lift the new entry once, shift ancestors down, drop it
  // into place — entries are 24-byte PODs, so this is pure integer traffic.
  const Event e = near_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = e;
}

void Simulator::pop_front() {
  const Event last = near_.back();
  near_.pop_back();
  const std::size_t n = near_.size();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(near_[c], near_[best])) best = c;
    }
    if (!before(near_[best], last)) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = last;
}

bool Simulator::ensure_near() {
  while (near_.empty()) {
    if (far_.empty()) return false;
    advance_horizon();
  }
  return true;
}

void Simulator::advance_horizon() {
  // The near heap is empty: the earliest far event is the global minimum.
  // Pull the next delta-wide slice of the far buffer into the heap.
  TimeNs min_far = far_.front().when;
  for (const Event& e : far_) min_far = std::min(min_far, e.when);
  horizon_ = min_far + delta_;

  std::size_t kept = 0;
  for (const Event& e : far_) {
    if (e.when < horizon_) {
      near_.push_back(e);
      sift_up(near_.size() - 1);
    } else {
      far_[kept++] = e;
    }
  }
  far_.resize(kept);

  // Tune the slice width toward migration batches in the hundreds: wide
  // enough to amortize the O(far) partition scan, narrow enough to keep the
  // near heap (and its sift depth) small.
  const std::size_t moved = near_.size();
  if (moved > 2048 && delta_ > kMinDelta) {
    delta_ >>= 1;
  } else if (moved < 256 && delta_ < kMaxDelta) {
    delta_ <<= 1;
  }
}

bool Simulator::step() {
  if (!ensure_near()) return false;
  now_ = near_.front().when;
  ++executed_;
  ++process_executed_;
  // Move the callable out and free its slot before reshaping the heap: the
  // callable may schedule new events (which touch the queue) when invoked.
  const std::uint32_t slot = near_.front().slot;
  runtime::Task fn = std::move(slots_[slot].fn);
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
  pop_front();
  fn();
  return true;
}

void Simulator::run_until(TimeNs until) {
  MRP_CHECK(until >= now_);
  while (ensure_near() && near_.front().when <= until) step();
  now_ = until;
}

std::size_t Simulator::run_until_idle(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace mrp::sim
