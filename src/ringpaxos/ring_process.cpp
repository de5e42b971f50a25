#include <algorithm>

#include "common/check.hpp"
#include "ringpaxos/ring_handler.hpp"

namespace mrp::ringpaxos {

namespace {
int ttl_for(const coord::RingView& v) {
  return static_cast<int>(v.members.size()) + 2;
}

// Size bound on one retransmission or log-sync reply, on top of the
// max_retransmit_instances count bound: far below the transport's 64 MiB
// frame limit even when instances carry large batched values.
constexpr std::size_t kCatchupReplyBytes = 8u << 20;
}  // namespace

RingHandler::RingHandler(runtime::Node& host, coord::Registry& registry,
                         GroupId ring, RingParams params, DeliverFn deliver)
    : host_(host),
      registry_(registry),
      ring_(ring),
      params_(params),
      deliver_(std::move(deliver)) {
  MRP_CHECK(deliver_ != nullptr);
  next_seq_ = &host_.rt().stable<std::uint64_t>(
      "ringpaxos/" + std::to_string(ring_) + "/next_seq");

  // Read the cached view synchronously (ZK client cache); watch for changes.
  // The acceptor role derives from the view, not the static config: the
  // quorum basis is reconfigurable (coord/registry.hpp).
  view_ = registry_.current_view(ring_);
  apply_acceptor_view();
  registry_.watch_ring(ring_, host_.id());
  if (view_.coordinator == host_.id()) become_coordinator();

  last_progress_ = host_.now();
  // Periodic timers are gated on the attached flag: detach() flips it and
  // every chain stops re-arming (no perpetual no-op events from handlers
  // that left their ring).
  attached_ = std::make_shared<bool>(true);
  host_.every_while(params_.gap_timeout, attached_, [this] { check_gap(); });
  host_.every_while(params_.phase2_retry, attached_, [this] { retry_tick(); });
  host_.every_while(params_.proposal_retry, attached_,
                    [this] { proposal_retry_tick(); });
  if (params_.lambda > 0) {
    host_.every_while(params_.skip_interval, attached_,
                      [this] { rate_level_tick(); });
  }
}

void RingHandler::detach() {
  if (detached_) return;
  if (coord_.active) resign_coordinator();
  registry_.unwatch_ring(ring_, host_.id());
  detached_ = true;
  *attached_ = false;
}

bool RingHandler::is_coordinator() const {
  return view_.coordinator == host_.id();
}

bool RingHandler::is_acceptor() const { return configured_acceptor_; }

void RingHandler::apply_acceptor_view() {
  const std::vector<ProcessId>& basis = view_.configured_acceptors;
  auto it = std::find(basis.begin(), basis.end(), host_.id());
  configured_acceptor_ = it != basis.end();
  if (configured_acceptor_) {
    configured_acceptor_index_ =
        static_cast<int>(std::distance(basis.begin(), it));
    MRP_CHECK_MSG(basis.size() <= 64, "vote mask holds 64 acceptors");
    if (!log_) {
      log_ = std::make_unique<storage::AcceptorLog>(
          host_.rt(), ring_, params_.write_mode, params_.disk_index);
    }
  } else {
    configured_acceptor_index_ = -1;
    // A demoted acceptor keeps its log: it still serves retransmission and
    // log-sync requests for everything it voted on under the old basis.
  }
}

int RingHandler::acceptor_bit() const { return configured_acceptor_index_; }

std::uint64_t RingHandler::own_vote_bit() const {
  MRP_CHECK(configured_acceptor_);
  return 1ULL << configured_acceptor_index_;
}

ProcessId RingHandler::successor() const {
  if (!view_.contains(host_.id())) return kNoProcess;
  return view_.successor(host_.id());
}

void RingHandler::forward(runtime::MessagePtr m) {
  const ProcessId next = successor();
  if (next == kNoProcess || next == host_.id()) return;
  host_.send(next, std::move(m));
}

ValueId RingHandler::next_value_id() {
  return ValueId{host_.id(), ++*next_seq_};
}

ValueId RingHandler::propose(Payload payload) {
  MRP_CHECK_MSG(!detached_, "propose on a detached ring handler");
  paxos::Value v;
  v.id = next_value_id();
  v.payload = std::move(payload);
  own_proposals_[v.id] = OwnProposal{v, host_.now()};

  if (is_coordinator() && coord_.active) {
    coordinator_enqueue(v);
  } else {
    auto msg = std::make_shared<MsgProposal>();
    msg->ring = ring_;
    msg->ttl = ttl_for(view_);
    msg->value = v;
    if (view_.contains(host_.id())) {
      forward(msg);
    } else if (view_.coordinator != kNoProcess) {
      // Not (yet) a ring member: hand the value to the coordinator directly.
      host_.send(view_.coordinator, msg);
    }
  }
  return v.id;
}

void RingHandler::resend_own(OwnProposal& p) {
  p.sent_at = host_.now();
  if (is_coordinator() && coord_.active) {
    coordinator_enqueue(p.value);
    return;
  }
  auto msg = std::make_shared<MsgProposal>();
  msg->ring = ring_;
  msg->ttl = ttl_for(view_);
  msg->value = p.value;
  if (view_.contains(host_.id())) {
    forward(std::move(msg));
  } else if (view_.coordinator != kNoProcess) {
    host_.send(view_.coordinator, std::move(msg));
  }
}

void RingHandler::proposal_retry_tick() {
  if (catching_up_) catchup_request_next();  // re-request lost chunks
  const TimeNs now = host_.now();
  for (auto& [id, p] : own_proposals_) {
    if (now - p.sent_at < params_.proposal_retry) continue;
    if (now < p.next_retry) continue;  // backing off after MsgBusy pushback
    resend_own(p);
  }
}

void RingHandler::handle(ProcessId from, const runtime::Message& m) {
  if (detached_) return;  // left the ring: drop late traffic
  switch (m.kind()) {
    case kMsgProposal:
      handle_proposal(runtime::msg_cast<MsgProposal>(m));
      return;
    case kMsgPhase1A:
      handle_phase1a(from, runtime::msg_cast<MsgPhase1A>(m));
      return;
    case kMsgPhase1B:
      handle_phase1b(runtime::msg_cast<MsgPhase1B>(m));
      return;
    case kMsgPhase2:
      handle_phase2(from, runtime::msg_cast<MsgPhase2>(m));
      return;
    case kMsgDecision:
      handle_decision(runtime::msg_cast<MsgDecision>(m));
      return;
    case kMsgRetransmitReq:
      handle_retransmit_req(from, runtime::msg_cast<MsgRetransmitReq>(m));
      return;
    case kMsgRetransmitReply:
      handle_retransmit_reply(runtime::msg_cast<MsgRetransmitReply>(m));
      return;
    case kMsgTrim:
      handle_trim(runtime::msg_cast<MsgTrim>(m));
      return;
    case kMsgBusy:
      handle_busy(runtime::msg_cast<MsgBusy>(m));
      return;
    case kMsgSkipDemand:
      request_skip(runtime::msg_cast<MsgSkipDemand>(m).upto);
      return;
    case kMsgLogSyncReq:
      handle_log_sync_req(from, runtime::msg_cast<MsgLogSyncReq>(m));
      return;
    case kMsgLogSyncReply:
      handle_log_sync_reply(from, runtime::msg_cast<MsgLogSyncReply>(m));
      return;
    default:
      MRP_CHECK_MSG(false, "unknown ring message kind");
  }
}

void RingHandler::handle_busy(const MsgBusy& m) {
  apply_busy(m.id, m.retry_after);
}

void RingHandler::apply_busy(const ValueId& id, TimeNs retry_after) {
  auto it = own_proposals_.find(id);
  if (it == own_proposals_.end()) return;  // decided (or resolved) meanwhile
  ++busy_received_;
  OwnProposal& p = it->second;
  ++p.busy_attempts;
  const TimeNs delay = std::max(
      retry_after,
      jittered_backoff(p.busy_attempts, params_.busy_backoff, host_.rng()));
  p.next_retry = host_.now() + delay;
  // Re-forward when the backoff elapses rather than waiting for the (much
  // slower) proposal_retry tick: the shed value holds admission credits at
  // the layer above, so a prompt bounded retry is what keeps the pipeline
  // flowing at the configured caps. The timer dies with the process; a
  // missed resend is still covered by proposal_retry_tick.
  const ValueId vid = id;
  host_.after(delay, [this, vid] {
    if (detached_) return;
    auto lookup = own_proposals_.find(vid);
    if (lookup == own_proposals_.end()) return;  // resolved meanwhile
    if (host_.now() < lookup->second.next_retry) return;  // superseded
    resend_own(lookup->second);
  });
}

RingHandler::FlowStats RingHandler::flow_stats() const {
  FlowStats s;
  s.pending_depth = coord_.pending.size();
  s.pending_hwm = coord_.pending_stats.high_watermark();
  s.pending_admitted = coord_.pending_stats.admitted();
  s.shed = coord_.pending_stats.shed();
  s.inflight_depth = coord_.inflight.size();
  s.inflight_hwm = coord_.inflight_hwm;
  s.window = coord_.window;
  s.busy_received = busy_received_;
  return s;
}

void RingHandler::on_view(const coord::RingView& v) {
  MRP_CHECK(v.ring == ring_);
  if (detached_) return;
  if (v.epoch < view_.epoch) return;  // stale notification
  const bool basis_changed = v.acceptor_view != view_.acceptor_view;
  // Demands sent to a former coordinator died with its term: a new one must
  // hear the current demand even if it is not higher.
  if (v.coordinator != view_.coordinator) skip_demand_sent_ = 0;
  view_ = v;
  if (basis_changed) {
    apply_acceptor_view();
    if (catching_up_ && configured_acceptor_) {
      // Activation observed: this process is part of the new quorum basis.
      catching_up_ = false;
      catchup_sources_.clear();
    }
    // Any sitting coordinator must re-run Phase 1 under the new basis (its
    // vote masks and quorum size changed); resigning here lets the normal
    // branch below re-elect it with the new view's round. A coordinator that
    // is re-elected keeps the values it queued but never assigned an
    // instance, ids remembered: no acceptor holds them, and dropping them
    // would leave their proposers waiting out proposal_retry (a heal that
    // lands while the ring is stalled on a dead acceptor's instances finds
    // the whole outage queued here).
    if (coord_.active) {
      std::deque<paxos::Value> queued;
      if (view_.coordinator == host_.id()) {
        queued.swap(coord_.pending);
        std::erase_if(queued,
                      [](const paxos::Value& v) { return v.is_skip(); });
      }
      resign_coordinator();
      coord_.pending.swap(queued);
    }
  }
  if (view_.coordinator == host_.id()) {
    if (!coord_.active) become_coordinator();
  } else if (coord_.active) {
    resign_coordinator();
  }
}

void RingHandler::handle_proposal(const MsgProposal& m) {
  if (is_coordinator() && coord_.active) {
    coordinator_enqueue(m.value);
    return;
  }
  if (m.ttl <= 0) return;
  auto copy = std::make_shared<MsgProposal>(m);
  copy->ttl = m.ttl - 1;
  forward(copy);
}

void RingHandler::handle_phase2(ProcessId /*from*/, const MsgPhase2& m) {
  // The coordinator consumes its own Phase 2 when it completes the loop
  // (it logged and voted at start_instance already).
  if (coord_.active && m.round == coord_.round && is_coordinator()) return;

  // Cache the value for delivery and retransmission (unless it is already
  // fully below the delivery floor and can never be needed again). If the
  // decision for this instance raced ahead of the value (possible after
  // reconfiguration re-sends), learn now.
  const std::uint64_t value_span = std::max<std::uint64_t>(1, m.value.skip_count);
  if (m.instance + value_span > next_delivery_) {
    value_cache_.insert_or_assign(m.instance, m.value);
  }
  if (decisions_without_value_.erase(m.instance) > 0) {
    if (log_) log_->mark_decided(m.instance);
    learn(m.instance, m.value);
    if (coord_.active) coordinator_on_decision(m.instance, m.value);
  }

  // Vote only under the acceptor view the mask was built for: vote bits are
  // positional in the configured list, so a mask minted under another basis
  // must circulate (for learning) but gather no votes here. A Phase 2 whose
  // votes already form a quorum is past its decision point: acceptors
  // downstream of the quorum cache and forward it without logging, so each
  // decided value sits in (at least) a quorum of logs rather than in all of
  // them — all that Phase 1, the replace gate and the union catch-up need.
  if (configured_acceptor_ && log_ && m.aview == view_.acceptor_view &&
      m.round >= log_->promised() &&
      !paxos::is_quorum(m.votes, view_.total_acceptors)) {
    if (m.round > log_->promised()) log_->promise(m.round, nullptr);
    MsgPhase2 out = m;
    out.ttl = m.ttl - 1;
    paxos::LogRecord rec;
    rec.vround = m.round;
    rec.value = m.value;
    const std::size_t logged = 40 + m.value.payload.size();
    if (params_.write_mode == storage::WriteMode::Async &&
        params_.log_background_ns_per_byte > 0) {
      host_.charge_background(static_cast<TimeNs>(
          params_.log_background_ns_per_byte * static_cast<double>(logged)));
    }
    // Log before voting (Section 5.1): the vote leaves this process only
    // once the record is durable (per write mode).
    log_->accept(m.instance, rec,
                 host_.guard([this, out = std::move(out)]() mutable {
                   phase2_accepted(std::move(out));
                 }));
    return;
  }

  if (m.ttl <= 0) return;
  auto copy = std::make_shared<MsgPhase2>(m);
  copy->ttl = m.ttl - 1;
  forward(copy);
}

void RingHandler::phase2_accepted(MsgPhase2 out) {
  // Fence at fire time: the durable-write completion may land after a view
  // change demoted this acceptor or switched the basis — its vote bit would
  // be positioned for the wrong acceptor list.
  if (out.aview != view_.acceptor_view || !configured_acceptor_) return;
  const std::uint64_t before = out.votes;
  out.votes |= own_vote_bit();

  const bool crossed = !paxos::is_quorum(before, view_.total_acceptors) &&
                       paxos::is_quorum(out.votes, view_.total_acceptors);
  const InstanceId instance = out.instance;
  const paxos::Value value = out.value;

  // The value must keep circulating *ahead of* the decision: links are
  // FIFO, so sending Phase 2 first guarantees every downstream member has
  // the value cached by the time the decision notification arrives.
  if (out.ttl > 0) {
    forward(std::make_shared<MsgPhase2>(std::move(out)));
  }

  if (crossed) {
    // This vote completed the quorum: this acceptor announces the decision.
    if (log_) log_->mark_decided(instance);
    auto dec = std::make_shared<MsgDecision>();
    dec->ring = ring_;
    dec->ttl = ttl_for(view_);
    dec->instance = instance;
    dec->value = value;
    dec->with_value = false;
    dec->origin = host_.id();
    learn(instance, value);
    if (coord_.active) coordinator_on_decision(instance, value);
    forward(dec);
  }
}

void RingHandler::handle_decision(const MsgDecision& m) {
  if (m.with_value) {
    const std::uint64_t span = std::max<std::uint64_t>(1, m.value.skip_count);
    if (m.instance + span > next_delivery_) {
      value_cache_.insert_or_assign(m.instance, m.value);
    }
  }

  paxos::Value value;
  bool have_value = false;
  if (m.with_value) {
    value = m.value;
    have_value = true;
  } else if (const paxos::Value* cached = value_cache_.find(m.instance)) {
    value = *cached;
    have_value = true;
  } else if (log_) {
    if (auto rec = log_->get(m.instance)) {
      value = rec->value;
      have_value = true;
    }
  }

  if (have_value) {
    if (log_) {
      // A decision re-circulated with its value (Phase 1 adoption after a
      // view change) installs the record where it is missing. A plain
      // decision only marks an existing record: an acceptor that saw the
      // Phase 2 after its quorum formed deliberately holds no record.
      if (m.with_value && !log_->get(m.instance)) {
        paxos::LogRecord rec;
        rec.vround = coord_.round;
        rec.value = value;
        rec.decided = true;
        log_->accept(m.instance, rec, nullptr);
      }
      log_->mark_decided(m.instance);
    }
    learn(m.instance, value);
    if (coord_.active) coordinator_on_decision(m.instance, value);
  } else {
    // Decision without the value: remember it so a late-arriving Phase 2
    // resolves it immediately, and advance the hint so the gap timer can
    // fall back to retransmission.
    if (m.instance >= next_delivery_) {
      decisions_without_value_.insert(m.instance);
    }
    pending_decision_hint_ = std::max(pending_decision_hint_, m.instance + 1);
  }

  if (m.origin == host_.id()) return;  // completed the loop
  if (m.ttl <= 0) return;
  auto copy = std::make_shared<MsgDecision>(m);
  copy->ttl = m.ttl - 1;
  forward(copy);
}

void RingHandler::learn(InstanceId instance, const paxos::Value& value) {
  const std::uint64_t span = std::max<std::uint64_t>(1, value.skip_count);
  // Drop only if fully below the delivery floor: a skip range straddling
  // the floor (mid-range checkpoint) must still be delivered; downstream
  // consumers trim the already-covered prefix.
  if (instance + span <= next_delivery_) return;
  if (!decided_buffer_.insert(instance, value)) return;
  ++decided_count_;
  if (value.is_skip()) ++skips_decided_;
  pending_decision_hint_ =
      std::max(pending_decision_hint_,
               instance + std::max<std::uint64_t>(1, value.skip_count));
  flush_ordered();
}

void RingHandler::flush_ordered() {
  for (;;) {
    if (decided_buffer_.empty()) break;
    const InstanceId inst = decided_buffer_.front_key();
    const paxos::Value& front = decided_buffer_.front();
    const std::uint64_t span = std::max<std::uint64_t>(1, front.skip_count);
    // Deliverable when it starts at the floor or straddles it (skip range
    // partially covered by an installed checkpoint).
    if (inst > next_delivery_ || inst + span <= next_delivery_) {
      if (inst + span <= next_delivery_) {
        decided_buffer_.pop_front();
        continue;
      }
      break;
    }
    const paxos::Value v = decided_buffer_.pop_front();
    deliver_(ring_, inst, v);
    if (own_proposals_.erase(v.id) > 0 && on_own_delivered_) {
      on_own_delivered_(ring_, v);  // return flow-control credits
    }
    next_delivery_ = inst + span;
    last_progress_ = host_.now();
  }
  // Anything fully below the floor is resolved: drop cached values (keeping
  // a skip range that straddles the floor — its decision may still arrive)
  // and stale value-less decision markers.
  while (!value_cache_.empty() && value_cache_.front_key() < next_delivery_) {
    const std::uint64_t span =
        std::max<std::uint64_t>(1, value_cache_.front().skip_count);
    if (value_cache_.front_key() + span > next_delivery_) break;
    value_cache_.pop_front();
  }
  decisions_without_value_.erase(
      decisions_without_value_.begin(),
      decisions_without_value_.lower_bound(next_delivery_));
}

void RingHandler::check_gap() {
  const bool behind = (!decided_buffer_.empty() &&
                       decided_buffer_.front_key() > next_delivery_) ||
                      pending_decision_hint_ > next_delivery_;
  if (!behind) return;
  if (host_.now() - last_progress_ < params_.gap_timeout) return;
  if (retransmit_inflight_ &&
      host_.now() - last_progress_ < 4 * params_.gap_timeout) {
    return;
  }
  // Still in flight past the wait above: the request or its reply was lost,
  // so try the next candidate.
  if (retransmit_inflight_) ++retransmit_cursor_;
  InstanceId hi = pending_decision_hint_;
  if (!decided_buffer_.empty()) {
    hi = std::max(hi, decided_buffer_.front_key());
  }
  request_retransmission(hi);
}

void RingHandler::request_retransmission(InstanceId hi) {
  if (hi <= next_delivery_) return;
  auto req = std::make_shared<MsgRetransmitReq>();
  req->ring = ring_;
  req->lo = next_delivery_;
  req->hi = hi;
  // Candidates in ring order starting at the coordinator: Phase 2 is logged
  // by the coordinator and the acceptors after it until a quorum forms, so
  // the acceptors past the quorum (which hold no records) come last. The
  // target stays put while it serves progress and rotates only after a
  // no-progress or lost reply: an acceptor may hold a needed record without
  // its decided mark (the decision can die between ring hops), so a fixed
  // target could stall forever while another acceptor — at least the
  // quorum-crossing announcer — has the mark.
  std::vector<ProcessId> candidates;
  const auto& acc = view_.acceptors;
  const auto first = std::find(acc.begin(), acc.end(), view_.coordinator);
  const std::size_t start =
      first == acc.end() ? 0 : static_cast<std::size_t>(first - acc.begin());
  for (std::size_t k = 0; k < acc.size(); ++k) {
    const ProcessId a = acc[(start + k) % acc.size()];
    if (a != host_.id()) candidates.push_back(a);
  }
  if (!candidates.empty()) {
    retransmit_inflight_ = true;
    ++retransmissions_;
    host_.send(candidates[retransmit_cursor_ % candidates.size()], req);
    return;
  }
  if (log_) {
    // Only acceptor left is this process: serve from the local log.
    for (auto& [inst, rec] : log_->range(req->lo, req->hi)) {
      if (rec.decided) learn(inst, rec.value);
    }
  }
}

void RingHandler::handle_retransmit_req(ProcessId from,
                                        const MsgRetransmitReq& m) {
  if (!log_) return;  // only acceptors hold logs
  auto reply = std::make_shared<MsgRetransmitReply>();
  reply->ring = ring_;
  reply->lo = m.lo;
  reply->hi = m.hi;
  reply->trimmed_to = log_->trimmed_to();
  std::size_t served = 0;
  std::size_t bytes = 0;
  for (auto& [inst, rec] : log_->range(m.lo, m.hi)) {
    if (!rec.decided) continue;
    reply->decided.emplace_back(inst, rec.value);
    bytes += rec.value.payload.size() + 40;
    // Bounded by count and by size: the learner chases the remainder.
    if (++served >= params_.max_retransmit_instances ||
        bytes >= kCatchupReplyBytes) {
      break;
    }
  }
  // Reading and serializing the log records competes with the acceptor's
  // ring duties — this is what makes recovery visible in Figure 8.
  if (params_.retransmit_cpu_ns_per_byte > 0) {
    host_.charge(static_cast<TimeNs>(params_.retransmit_cpu_ns_per_byte *
                                     static_cast<double>(bytes)));
  }
  host_.send(from, reply);
}

void RingHandler::handle_retransmit_reply(const MsgRetransmitReply& m) {
  retransmit_inflight_ = false;
  if (m.trimmed_to > next_delivery_) {
    // The acceptors no longer hold the instances this learner needs: the
    // replica must install a checkpoint from a partition peer (Section 5.2).
    if (on_trimmed_gap_) on_trimmed_gap_(ring_, m.trimmed_to);
    return;
  }
  const InstanceId before = next_delivery_;
  for (const auto& [inst, value] : m.decided) learn(inst, value);
  // Replies are chunked (max_retransmit_instances and a byte budget); chase
  // the remainder from the same acceptor — but only when this reply
  // actually advanced delivery. A no-progress reply (the serving acceptor
  // lacks the record or its decided mark) rotates to the next acceptor and
  // falls back to the gap timer; chasing it would spin a request/reply loop.
  if (next_delivery_ == before) {
    ++retransmit_cursor_;
    return;
  }
  if (pending_decision_hint_ > next_delivery_) {
    request_retransmission(pending_decision_hint_);
  }
}

// --- acceptor-log catch-up (joining acceptor) -------------------------------

void RingHandler::on_acceptor_prep(const coord::MsgAcceptorPrep& m) {
  if (detached_ || m.ring != ring_) return;
  if (m.seq <= catchup_seq_) return;  // re-sent or stale prep: dedup by seq
  catching_up_ = true;
  catchup_seq_ = m.seq;
  catchup_sources_ = m.sources;
  catchup_cursor_ = 0;
  catchup_from_ = 0;
  // The joiner starts logging before activation so records installed during
  // catch-up are durable under the same slot the acceptor role will use.
  if (!log_) {
    log_ = std::make_unique<storage::AcceptorLog>(
        host_.rt(), ring_, params_.write_mode, params_.disk_index);
  }
  catchup_request_next();
}

void RingHandler::catchup_request_next() {
  if (!catching_up_) return;
  if (catchup_cursor_ >= catchup_sources_.size()) {
    // Union drained. Tell the registry; activation arrives as a view change
    // with a bumped acceptor_view (the call is idempotent — re-confirming
    // while the change is no longer pending is ignored).
    registry_.acceptor_synced(ring_, host_.id(), catchup_seq_);
    return;
  }
  auto req = std::make_shared<MsgLogSyncReq>();
  req->ring = ring_;
  req->seq = catchup_seq_;
  req->from = catchup_from_;
  host_.send(catchup_sources_[catchup_cursor_], req);
}

void RingHandler::handle_log_sync_req(ProcessId from, const MsgLogSyncReq& m) {
  if (!log_) return;  // never held this ring's acceptor log
  auto reply = std::make_shared<MsgLogSyncReply>();
  reply->ring = ring_;
  reply->seq = m.seq;
  reply->from = m.from;
  reply->promised = log_->promised();
  reply->trimmed_to = log_->trimmed_to();
  const InstanceId hi =
      log_->highest_instance() ? *log_->highest_instance() + 1 : 0;
  InstanceId chunk_hi = std::min(
      hi, m.from + static_cast<InstanceId>(params_.max_retransmit_instances));
  std::size_t bytes = 0;
  for (auto& [inst, rec] : log_->range(m.from, chunk_hi)) {
    paxos::Promise p;
    p.instance = inst;
    p.vround = rec.vround;
    p.value = rec.value;
    p.decided = rec.decided;
    bytes += rec.value.payload.size() + 40;
    reply->records.push_back(std::move(p));
    // Size bound: the chunk ends after this record. Only records at or
    // above the cursor may end it (range() can lead with a skip range
    // straddling `from`), so every chunk makes progress.
    if (bytes >= kCatchupReplyBytes && inst >= m.from) {
      chunk_hi = inst + 1;
      break;
    }
  }
  reply->next = chunk_hi;
  reply->done = chunk_hi >= hi;
  // Serving the log competes with ring duties, same as retransmission.
  if (params_.retransmit_cpu_ns_per_byte > 0) {
    host_.charge(static_cast<TimeNs>(params_.retransmit_cpu_ns_per_byte *
                                     static_cast<double>(bytes)));
  }
  host_.send(from, reply);
}

void RingHandler::handle_log_sync_reply(ProcessId from,
                                        const MsgLogSyncReply& m) {
  // Accept only the chunk we are waiting for: right change attempt (seq),
  // right source (a stale duplicate from the previous source could carry
  // the same cursor — e.g. 0 — and its `done` would skip this source), and
  // right cursor position.
  if (!catching_up_ || m.seq != catchup_seq_ ||
      catchup_cursor_ >= catchup_sources_.size() ||
      from != catchup_sources_[catchup_cursor_] || m.from != catchup_from_) {
    return;
  }
  MRP_CHECK(log_ != nullptr);
  for (const paxos::Promise& p : m.records) {
    paxos::LogRecord rec;
    rec.vround = p.vround;
    rec.value = p.value;
    // accept() keeps the higher-vround record, so draining several sources
    // converges on each instance's latest vote; memory-mode install (no
    // completion needed — activation is gated on the registry round-trip).
    log_->accept(p.instance, rec, nullptr);
    if (p.decided) log_->mark_decided(p.instance);
  }
  // Inherit the strictest promise floor and trim horizon seen anywhere:
  // the joiner must not promise below rounds any source already promised,
  // nor serve instances some source already trimmed.
  if (m.promised > log_->promised()) log_->promise(m.promised, nullptr);
  if (m.trimmed_to > log_->trimmed_to()) log_->trim(m.trimmed_to);
  if (m.done) {
    ++catchup_cursor_;
    // Next source: start at our own trim horizon — accept() discards
    // anything below it, so paging through that prefix would be pure
    // waste. The untrimmed prefix IS re-drained on purpose: a later
    // source may hold a higher-vround vote for an already-installed
    // instance, and accept() keeps the maximum.
    catchup_from_ = log_->trimmed_to();
  } else {
    catchup_from_ = m.next;
  }
  catchup_request_next();
}

void RingHandler::handle_trim(const MsgTrim& m) {
  if (!log_) return;
  const std::size_t before = log_->record_count();
  log_->trim(m.upto);
  const std::size_t removed = before - log_->record_count();
  // Deleting log records is not free (BDB range deletes); large trims dent
  // throughput, as in the paper's Figure 8 (event 3).
  host_.charge(params_.trim_cpu_per_record *
               static_cast<TimeNs>(removed));
}

void RingHandler::set_delivery_floor(InstanceId next) {
  next_delivery_ = std::max(next_delivery_, next);
  // Drop buffered decisions fully below the floor; keep straddling ranges
  // (flush_ordered delivers them and the consumer trims the prefix).
  while (!decided_buffer_.empty()) {
    const InstanceId inst = decided_buffer_.front_key();
    const std::uint64_t span =
        std::max<std::uint64_t>(1, decided_buffer_.front().skip_count);
    if (inst + span > next_delivery_) break;
    decided_buffer_.pop_front();
  }
  flush_ordered();
}

}  // namespace mrp::ringpaxos
