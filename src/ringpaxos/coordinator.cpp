// Coordinator-side Ring Paxos: Phase 1 pre-execution, the instance pipeline,
// rate leveling and demand-driven skips, and retry of undecided instances.
#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "ringpaxos/ring_handler.hpp"

namespace mrp::ringpaxos {

void RingHandler::become_coordinator() {
  MRP_CHECK_MSG(configured_acceptor_, "coordinator must be an acceptor");
  coord_.active = true;
  coord_.phase1_done = false;
  coord_.round = view_.epoch;
  coord_.phase1_replies.clear();
  coord_.next_instance = std::max(coord_.next_instance, next_delivery_);
  coord_.window = params_.window;  // adaptive cap starts wide open
  // The dedup set grows to its 200k bound under sustained load; sizing it up
  // front keeps incremental rehashing off the per-value hot path.
  coord_.known_ids.reserve(200'001);

  // Promise to self, then pre-execute Phase 1 for all instances >= the local
  // ordered watermark with the other alive acceptors.
  log_->promise(coord_.round, nullptr);

  MsgPhase1B own;
  own.ring = ring_;
  own.round = coord_.round;
  own.acceptor = host_.id();
  own.trimmed_to = log_->trimmed_to();
  own.aview = view_.acceptor_view;
  own.promises = log_->promises_from(next_delivery_);
  coord_.phase1_replies[host_.id()] = std::move(own);

  for (ProcessId a : view_.acceptors) {
    if (a == host_.id()) continue;
    auto m = std::make_shared<MsgPhase1A>();
    m->ring = ring_;
    m->round = coord_.round;
    m->floor = next_delivery_;
    m->aview = view_.acceptor_view;
    host_.send(a, m);
  }
  maybe_finish_phase1();
}

void RingHandler::resign_coordinator() {
  coord_.active = false;
  coord_.phase1_done = false;
  coord_.phase1_replies.clear();
  // Values never assigned an instance are dropped here; their proposers
  // retry toward the new coordinator. Forget their ids too (from both the
  // dedup set and its FIFO trim order, which must stay in sync): if this
  // node is later re-elected, those retries must be admitted as fresh
  // values, not suppressed as duplicates (which would drop them forever and
  // leak the proposer's admission credits). In-flight accepted values are
  // recovered by the new coordinator's Phase 1 and keep their ids.
  std::unordered_set<ValueId, ValueIdHash> dropped;
  for (const paxos::Value& v : coord_.pending) {
    if (!v.is_skip() && coord_.known_ids.erase(v.id) > 0) dropped.insert(v.id);
  }
  if (!dropped.empty()) {
    std::erase_if(coord_.known_order,
                  [&](const ValueId& id) { return dropped.count(id) > 0; });
  }
  coord_.pending.clear();
  coord_.inflight.clear();
  coord_.demanded_upto = 0;
  coord_.demand_hold = 0;
}

void RingHandler::handle_phase1a(ProcessId from, const MsgPhase1A& m) {
  if (!log_ || !configured_acceptor_) return;
  // Promise only under the basis the coordinator elected with: a promise
  // from a different acceptor view would count toward the wrong quorum.
  if (m.aview != view_.acceptor_view) return;
  if (m.round < log_->promised()) return;  // stale coordinator
  auto reply = std::make_shared<MsgPhase1B>();
  reply->ring = ring_;
  reply->round = m.round;
  reply->acceptor = host_.id();
  reply->trimmed_to = log_->trimmed_to();
  reply->aview = m.aview;
  reply->promises = log_->promises_from(m.floor);
  // Log the promise before answering (Section 5.1).
  log_->promise(m.round, host_.guard([this, from, reply] {
    host_.send(from, reply);
  }));
}

void RingHandler::handle_phase1b(const MsgPhase1B& m) {
  if (!coord_.active || coord_.phase1_done) return;
  if (m.round != coord_.round) return;
  if (m.aview != view_.acceptor_view) return;  // promise under an old basis
  coord_.phase1_replies[m.acceptor] = m;
  maybe_finish_phase1();
}

void RingHandler::maybe_finish_phase1() {
  if (!coord_.active || coord_.phase1_done) return;
  if (coord_.phase1_replies.size() < view_.quorum()) return;

  // Merge the quorum's promises per instance.
  std::map<InstanceId, std::vector<paxos::Promise>> by_instance;
  InstanceId max_trimmed = 0;
  InstanceId max_seen = next_delivery_;  // exclusive upper bound of work
  for (const auto& [_, reply] : coord_.phase1_replies) {
    max_trimmed = std::max(max_trimmed, reply.trimmed_to);
    for (const paxos::Promise& p : reply.promises) {
      by_instance[p.instance].push_back(p);
      max_seen = std::max(
          max_seen, p.instance + std::max<std::uint64_t>(1, p.value.skip_count));
    }
  }

  coord_.phase1_done = true;

  // Walk [start, max_seen): adopt decided instances, re-propose accepted
  // ones with the new round, and fill untouched holes with skip ranges
  // (nothing could have been decided there — Paxos allows any value).
  InstanceId pos = std::max(next_delivery_, max_trimmed);
  for (const auto& [inst, promises] : by_instance) {
    if (inst < pos) continue;
    if (inst > pos) {
      // Hole: no acceptor in the quorum voted in [pos, inst).
      start_instance(pos, paxos::Value::skip(
                              next_value_id(),
                              static_cast<std::uint32_t>(inst - pos)));
    }
    pos = inst;
    bool decided = false;
    paxos::Value decided_value;
    for (const paxos::Promise& p : promises) {
      if (p.decided) {
        decided = true;
        decided_value = p.value;
        break;
      }
    }
    if (decided) {
      // Re-circulate the decision with the value so members that missed the
      // original Phase 2 pass still learn it.
      if (log_) {
        paxos::LogRecord rec;
        rec.vround = coord_.round;
        rec.value = decided_value;
        rec.decided = true;
        log_->accept(inst, rec, nullptr);
        log_->mark_decided(inst);
      }
      auto dec = std::make_shared<MsgDecision>();
      dec->ring = ring_;
      dec->ttl = static_cast<int>(view_.members.size()) + 2;
      dec->instance = inst;
      dec->value = decided_value;
      dec->with_value = true;
      dec->origin = host_.id();
      learn(inst, decided_value);
      coordinator_on_decision(inst, decided_value);
      forward(dec);
      pos = inst + std::max<std::uint64_t>(1, decided_value.skip_count);
    } else {
      std::optional<paxos::Value> chosen = paxos::choose_phase1_value(promises);
      MRP_CHECK(chosen.has_value());
      remember_id(chosen->id);
      start_instance(inst, *chosen);
      pos = inst + std::max<std::uint64_t>(1, chosen->skip_count);
    }
  }
  if (pos < max_seen) {
    start_instance(pos, paxos::Value::skip(
                            next_value_id(),
                            static_cast<std::uint32_t>(max_seen - pos)));
    pos = max_seen;
  }
  coord_.next_instance = std::max(coord_.next_instance, pos);
  drain_pending();
  skip_on_demand();
}

void RingHandler::remember_id(const ValueId& id) {
  if (coord_.known_ids.insert(id).second) {
    coord_.known_order.push_back(id);
    if (coord_.known_order.size() > 200'000) {
      coord_.known_ids.erase(coord_.known_order.front());
      coord_.known_order.pop_front();
    }
  }
}

void RingHandler::coordinator_enqueue(paxos::Value v) {
  MRP_CHECK(coord_.active);
  if (!v.is_skip() && coord_.known_ids.count(v.id)) {
    return;  // duplicate (proposer retry)
  }
  if (!coord_.phase1_done || coord_.inflight.size() >= coord_.window) {
    if (coord_.pending.size() >= params_.max_pending) {
      // Bounded pipeline: refuse a slot and push back to the proposer
      // instead of queueing without bound. The id is deliberately NOT
      // remembered — the backed-off re-submission must not be suppressed
      // as a duplicate.
      shed_value(v);
      return;
    }
    if (!v.is_skip()) remember_id(v.id);
    coord_.pending.push_back(std::move(v));
    coord_.pending_stats.on_admit(coord_.pending.size());
    return;
  }
  if (!v.is_skip()) remember_id(v.id);
  const InstanceId inst = coord_.next_instance;
  coord_.next_instance += std::max<std::uint64_t>(1, v.skip_count);
  start_instance(inst, std::move(v));
}

void RingHandler::shed_value(const paxos::Value& v) {
  coord_.pending_stats.on_shed();
  if (v.is_skip()) return;  // rate-leveling top-ups are never re-submitted
  if (v.id.proposer == host_.id()) {
    apply_busy(v.id, params_.busy_retry_hint);
    return;
  }
  auto busy = std::make_shared<MsgBusy>();
  busy->ring = ring_;
  busy->id = v.id;
  busy->retry_after = params_.busy_retry_hint;
  host_.send(v.id.proposer, busy);
}

void RingHandler::drain_pending() {
  while (coord_.phase1_done && !coord_.pending.empty() &&
         coord_.inflight.size() < coord_.window) {
    paxos::Value v = std::move(coord_.pending.front());
    coord_.pending.pop_front();
    const InstanceId inst = coord_.next_instance;
    coord_.next_instance += std::max<std::uint64_t>(1, v.skip_count);
    start_instance(inst, std::move(v));
  }
}

void RingHandler::start_instance(InstanceId instance, paxos::Value v) {
  MRP_CHECK(coord_.active);
  if (!v.is_skip()) {
    ++coord_.interval_value_instances;
    coord_.demand_hold = std::max(coord_.demand_hold, instance + 1);
  }
  coord_.inflight.insert_or_assign(instance, Inflight{v, host_.now()});
  if (coord_.inflight.size() > coord_.inflight_hwm) {
    coord_.inflight_hwm = coord_.inflight.size();
  }
  value_cache_.insert_or_assign(instance, v);

  auto msg = std::make_shared<MsgPhase2>();
  msg->ring = ring_;
  msg->ttl = static_cast<int>(view_.members.size()) + 2;
  msg->round = coord_.round;
  msg->instance = instance;
  msg->value = v;
  msg->votes = 0;
  msg->aview = view_.acceptor_view;

  paxos::LogRecord rec;
  rec.vround = coord_.round;
  rec.value = std::move(v);
  const std::size_t logged = 40 + rec.value.payload.size();
  if (params_.write_mode == storage::WriteMode::Async &&
      params_.log_background_ns_per_byte > 0) {
    host_.charge_background(static_cast<TimeNs>(
        params_.log_background_ns_per_byte * static_cast<double>(logged)));
  }
  log_->accept(instance, rec, host_.guard([this, msg]() {
    // Own vote leaves only after the record is durable.
    phase2_accepted(*msg);
  }));
}

void RingHandler::coordinator_on_decision(InstanceId instance,
                                          const paxos::Value& v) {
  if (!coord_.active) return;
  coord_.inflight.erase(instance);
  if (!v.is_skip()) remember_id(v.id);
  // Additive recovery of the adaptive window: the ring is draining, so the
  // pipeline may deepen again (up to the configured maximum).
  if (coord_.window < params_.window) ++coord_.window;
  drain_pending();
  skip_on_demand();
}

void RingHandler::rate_level_tick() {
  if (!coord_.active || !coord_.phase1_done || params_.lambda <= 0) return;
  const double interval_sec = to_seconds(params_.skip_interval);
  const auto quota = static_cast<std::uint64_t>(params_.lambda * interval_sec);
  const std::uint64_t produced = coord_.interval_value_instances;
  coord_.interval_value_instances = 0;
  if (produced >= quota) return;
  if (!coord_.pending.empty() || coord_.inflight.size() >= coord_.window) {
    return;  // ring saturated; no top-up needed
  }
  const auto deficit = static_cast<std::uint32_t>(quota - produced);
  coordinator_enqueue(paxos::Value::skip(next_value_id(), deficit));
}

void RingHandler::request_skip(InstanceId upto) {
  // Rate leveling stays the single switch: a ring configured without it
  // never skips, on demand or otherwise.
  if (detached_ || params_.lambda <= 0) return;
  if (!is_coordinator()) {
    if (upto <= skip_demand_sent_ || view_.coordinator == kNoProcess) return;
    skip_demand_sent_ = upto;
    auto m = std::make_shared<MsgSkipDemand>();
    m->ring = ring_;
    m->upto = upto;
    host_.send(view_.coordinator, std::move(m));
    return;
  }
  if (!coord_.active) return;
  coord_.demanded_upto = std::max(coord_.demanded_upto, upto);
  skip_on_demand();
}

void RingHandler::skip_on_demand() {
  // Only a ring without values pending or in flight skips: values advance
  // the ring anyway, and values about to arrive would otherwise land behind
  // the skip. One demand skip is in flight at a time, so the demands that
  // arrive meanwhile are served together once it is delivered: a loaded peer
  // ring costs this ring one skip per ring pass, not one per learner and
  // event batch. A held demand is served on a later decision
  // (coordinator_on_decision).
  if (!coord_.phase1_done || !coord_.pending.empty() ||
      coord_.demand_hold > next_delivery_ ||
      coord_.inflight.size() >= coord_.window ||
      coord_.demanded_upto <= coord_.next_instance) {
    return;
  }
  const auto count = static_cast<std::uint32_t>(
      std::min<InstanceId>(coord_.demanded_upto - coord_.next_instance,
                           std::numeric_limits<std::uint32_t>::max()));
  // Demand skips count toward the rate-leveling interval: the Delta tick
  // only tops up what demand did not already cover.
  coord_.interval_value_instances += count;
  coord_.demand_hold = coord_.next_instance + count;
  coordinator_enqueue(paxos::Value::skip(next_value_id(), count));
}

void RingHandler::retry_tick() {
  if (!coord_.active) return;
  if (!coord_.phase1_done) {
    // Re-send Phase 1A to acceptors that have not answered (the initial
    // send may predate their startup, or the reply may have been lost).
    for (ProcessId a : view_.acceptors) {
      if (a == host_.id() || coord_.phase1_replies.count(a)) continue;
      auto m = std::make_shared<MsgPhase1A>();
      m->ring = ring_;
      m->round = coord_.round;
      m->floor = next_delivery_;
      m->aview = view_.acceptor_view;
      host_.send(a, m);
    }
    return;
  }
  const TimeNs now = host_.now();
  // Everything below the delivery floor is decided and delivered. Decisions
  // learned through retransmission catch-up bypass coordinator_on_decision,
  // so their inflight entries linger; drop them here both to stop useless
  // re-proposals and to keep the flat window dense.
  coord_.inflight.erase_below(next_delivery_);
  bool timed_out = false;
  coord_.inflight.for_each([&](InstanceId inst, Inflight& f) {
    if (now - f.proposed_at < params_.phase2_retry) return;
    timed_out = true;
    f.proposed_at = now;
    auto msg = std::make_shared<MsgPhase2>();
    msg->ring = ring_;
    msg->ttl = static_cast<int>(view_.members.size()) + 2;
    msg->round = coord_.round;
    msg->instance = inst;
    msg->value = f.value;
    msg->votes = own_vote_bit();  // already logged at start_instance
    msg->aview = view_.acceptor_view;
    forward(msg);
  });
  if (timed_out) {
    // The ring let a whole retry interval pass without deciding: halve the
    // adaptive window (down to the floor) so a slow or partitioned ring
    // stops accumulating inflight state it cannot drain.
    const std::size_t floor = std::min(params_.min_window, params_.window);
    coord_.window = std::max(floor, coord_.window / 2);
  }
}

}  // namespace mrp::ringpaxos
