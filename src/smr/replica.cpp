#include "smr/replica.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace mrp::smr {

ReplicaNode::ReplicaNode(runtime::Runtime& rt, coord::Registry* registry,
                         multiring::NodeConfig config,
                         StateMachineFactory factory, ReplicaOptions options)
    : MultiRingNode(rt, registry, std::move(config)),
      factory_(std::move(factory)),
      options_(options) {
  MRP_CHECK(factory_ != nullptr);
  sm_ = factory_(rt, id());
  MRP_CHECK(sm_ != nullptr);

  set_deliver([this](GroupId g, InstanceId i, const Payload& p) {
    deliver(g, i, p);
  });
  checkpointer_ = std::make_unique<recovery::Checkpointer>(
      *this, options_.checkpoint, [this] { return snapshot_state(); },
      [this](const Bytes& b) { restore_state(b); });
  trim_ = std::make_unique<recovery::TrimProtocol>(*this, options_.trim);
}

void ReplicaNode::on_start() {
  // Installs the local checkpoint (if any) and runs peer recovery.
  checkpointer_->start();
}

void ReplicaNode::on_app_message(ProcessId from, const runtime::Message& m) {
  if (checkpointer_->handle(from, m)) return;
  if (trim_->handle(from, m)) return;
  if (m.kind() == kMsgClientRequest) {
    const auto& req = runtime::msg_cast<MsgClientRequest>(m);
    enqueue_request(req.group, req.command);
    return;
  }
}

void ReplicaNode::on_trimmed_gap(GroupId /*group*/, InstanceId /*trimmed_to*/) {
  checkpointer_->request_recovery();
}

void ReplicaNode::enqueue_request(GroupId group, const Command& c) {
  Session& s = sessions_[c.session];
  if (s.executed(c.seq)) {
    // Already executed: answer directly without re-ordering the command.
    send_cached_reply(s, c.session, c.seq);
    return;
  }
  auto& pg = s.proposed[group];
  if (c.seq <= pg.first && now() - pg.second < options_.proposal_guard) {
    return;  // duplicate of a recent in-flight proposal on this ring
  }
  if (!admit(group, c)) return;  // admission window full: client pushed back
  pg = {c.seq, now()};
  PendingBatch& pb = pending_[group];
  pb.batch.commands.push_back(c);
  pb.bytes += c.wire_size();
  if (pb.bytes >= options_.batch_bytes) {
    flush_batch(group);
    return;
  }
  if (!pb.timer_armed) {
    pb.timer_armed = true;
    // batch_delay == 0 does not mean "no batching": the zero-delay timer
    // fires after the scheduler drains the current event batch, so requests
    // arriving in the same batch (one epoll sweep on the thread backend, one
    // simulated instant in the sim) coalesce into a single ring instance —
    // the protocol-layer mirror of the transport's end-of-batch flush.
    after(options_.batch_delay, [this, group] { flush_batch(group); });
  }
}

bool ReplicaNode::admit(GroupId group, const Command& c) {
  GroupFlow& gf = flow_[group];
  const std::size_t bytes = c.wire_size();
  const bool over_commands = options_.admission_commands > 0 &&
                             gf.commands + 1 > options_.admission_commands;
  const bool over_bytes = options_.admission_bytes > 0 &&
                          gf.bytes + bytes > options_.admission_bytes;
  if (over_commands || over_bytes) {
    // Out of credits: push back instead of queueing. The command was not
    // proposed, so the client's backed-off re-send is a fresh attempt (and
    // may land on a less loaded candidate proposer).
    gf.stats.on_shed();
    auto busy = std::make_shared<MsgClientBusy>();
    busy->session = c.session;
    busy->seq = c.seq;
    busy->group = group;
    busy->retry_after = options_.busy_retry_hint;
    send(session_client(c.session), busy);
    return false;
  }
  gf.commands += 1;
  gf.bytes += bytes;
  gf.stats.on_admit(gf.commands);
  return true;
}

void ReplicaNode::flush_batch(GroupId group) {
  auto it = pending_.find(group);
  if (it == pending_.end() || it->second.batch.commands.empty()) {
    if (it != pending_.end()) it->second.timer_armed = false;
    return;
  }
  Batch batch = std::move(it->second.batch);
  it->second = PendingBatch{};
  multicast_batch(group, std::move(batch));
}

void ReplicaNode::multicast_batch(GroupId group, Batch batch) {
  std::size_t bytes = 0;
  for (const Command& c : batch.commands) bytes += c.wire_size();
  const std::size_t commands = batch.commands.size();
  const ValueId vid = multicast(group, Payload(encode_batch(batch)));
  // The batch's admission credits ride on its value id until the ring
  // delivers it back (on_own_value_delivered).
  outstanding_values_[{group, vid}] = {bytes, commands};
}

void ReplicaNode::on_own_value_delivered(GroupId group, const paxos::Value& v) {
  auto it = outstanding_values_.find({group, v.id});
  if (it == outstanding_values_.end()) return;  // not an smr batch of ours
  GroupFlow& gf = flow_[group];
  gf.bytes -= std::min(gf.bytes, it->second.first);
  gf.commands -= std::min(gf.commands, it->second.second);
  outstanding_values_.erase(it);
}

ReplicaNode::AdmissionStats ReplicaNode::admission_stats(GroupId group) const {
  AdmissionStats s;
  auto it = flow_.find(group);
  if (it == flow_.end()) return s;
  s.outstanding_commands = it->second.commands;
  s.outstanding_bytes = it->second.bytes;
  s.commands_hwm = it->second.stats.high_watermark();
  s.admitted = it->second.stats.admitted();
  s.shed = it->second.stats.shed();
  return s;
}

ReplicaNode::DedupStats ReplicaNode::dedup_stats() const {
  DedupStats d;
  d.sessions = sessions_.size();
  for (const auto& [id, s] : sessions_) {
    d.above_floor_max = std::max(d.above_floor_max, s.exec_above.size());
  }
  return d;
}

void ReplicaNode::deliver(GroupId group, InstanceId /*instance*/,
                          const Payload& payload) {
  const Batch batch = decode_batch(payload.bytes());
  for (const Command& c : batch.commands) deliver_command(group, c);
}

void ReplicaNode::deliver_command(GroupId group, const Command& c) {
  if (!c.multi_group()) {
    execute(group, c);
    return;
  }
  // Multi-group command: one copy per addressed ring, all carrying the same
  // (session, seq) identity. Commit rule: execute exactly once, at the
  // merged position of the *last* subscribed addressed group to deliver its
  // copy. Replicas holding only a partial subscription commit at the last
  // group of (addressed ∩ subscribed) — deterministic, since the merged
  // interleaving is identical at every replica with the same group set.
  Session& s = sessions_[c.session];
  if (s.executed(c.seq)) {
    // A copy of an already-committed command (e.g. a re-proposed batch
    // after a coordinator change): answer from the cache, don't re-gather.
    send_cached_reply(s, c.session, c.seq);
    return;
  }
  const auto key = std::make_pair(c.session, c.seq);
  PendingMulti& pm = multi_pending_[key];
  if (pm.seen.empty()) pm.command = c;
  pm.seen.insert(group);
  if (!multi_gather_complete(pm)) return;
  const Command cmd = std::move(pm.command);
  multi_pending_.erase(key);
  execute(group, cmd);
}

bool ReplicaNode::multi_gather_complete(const PendingMulti& pm) const {
  const std::vector<GroupId>& subs = subscribed_groups();  // sorted
  for (GroupId g : pm.command.groups) {
    if (!std::binary_search(subs.begin(), subs.end(), g)) continue;
    if (pm.seen.count(g) == 0) return false;
  }
  return true;
}

void ReplicaNode::send_cached_reply(const Session& s, SessionId session,
                                    std::uint64_t seq) {
  // Only the session's most recent reply is cached (a retried command is
  // almost always the one still outstanding at the client; anything older
  // means the client has moved on).
  if (seq != s.last_seq) return;
  auto reply = std::make_shared<MsgClientReply>();
  reply->session = session;
  reply->seq = seq;
  reply->partition_tag = options_.partition_tag;
  reply->result = s.last_reply;
  send(session_client(session), reply);
}

void ReplicaNode::execute(GroupId group, const Command& c) {
  Session& s = sessions_[c.session];
  if (s.executed(c.seq)) {
    // Duplicate: resend the cached reply (the original answer may have
    // been lost in a crash).
    send_cached_reply(s, c.session, c.seq);
    return;
  }
  Bytes result = apply_command(group, c);
  ++executed_;
  s.mark_executed(c.seq);
  const bool replies = replier(group) == id();
  if (c.seq >= s.last_seq) {
    s.last_seq = c.seq;
    s.last_group = group;
    if (!replies) {
      s.left_at = now();
      s.last_reply = std::move(result);
      return;
    }
    s.left_at = 0;
    s.last_reply = result;
  }
  if (!replies) return;

  auto reply = std::make_shared<MsgClientReply>();
  reply->session = c.session;
  reply->seq = c.seq;
  reply->partition_tag = options_.partition_tag;
  reply->result = std::move(result);
  send(session_client(c.session), reply);
}

ProcessId ReplicaNode::replier(GroupId group) {
  const ringpaxos::RingHandler* h = handler(group);
  if (h == nullptr || merger() == nullptr) return id();
  ReplierCache& rc = repliers_[group];
  if (rc.replier == kNoProcess || rc.epoch != h->view().epoch ||
      rc.subscribed != merger()->groups()) {
    rc.epoch = h->view().epoch;
    rc.subscribed = merger()->groups();
    rc.replier = compute_replier(group);
  }
  return rc.replier;
}

ProcessId ReplicaNode::compute_replier(GroupId group) {
  const coord::RingView& v = handler(group)->view();
  // The quorum-crossing acceptor: the coordinator votes first, then the
  // alive acceptors after it in ring order until the quorum is complete.
  const auto coord =
      std::find(v.acceptors.begin(), v.acceptors.end(), v.coordinator);
  if (coord == v.acceptors.end() || v.acceptors.size() < v.quorum() ||
      !v.contains(id())) {
    return id();
  }
  const std::size_t n = v.acceptors.size();
  const ProcessId crosser =
      v.acceptors[(static_cast<std::size_t>(coord - v.acceptors.begin()) +
                   v.quorum() - 1) % n];
  if (registry().subscriptions(id()).empty()) return id();
  const std::vector<ProcessId> peers = registry().partition_peers(id());
  // The first partition peer in ring order from the crosser learns first.
  const auto start = std::find(v.members.begin(), v.members.end(), crosser);
  if (start == v.members.end()) return id();
  const std::size_t first = static_cast<std::size_t>(start - v.members.begin());
  for (std::size_t k = 0; k < v.members.size(); ++k) {
    const ProcessId q = v.members[(first + k) % v.members.size()];
    if (std::find(peers.begin(), peers.end(), q) != peers.end()) return q;
  }
  return id();
}

void ReplicaNode::on_ring_view(GroupId group) {
  auto it = repliers_.find(group);
  if (it == repliers_.end()) return;  // nothing executed on this ring yet
  const ProcessId before = it->second.replier;
  if (before == id() || replier(group) != id()) return;
  // Takeover: commands this replica executed under the old view were left
  // to `before`, which may have died (or lost the role) before answering.
  // Each session has at most its last command outstanding, and a crashed
  // replier leaves the view within one detection period, so only commands
  // executed shortly before this change can be unanswered.
  resend_last_replies(group,
                      now() - 2 * registry().detection_bound(group));
}

void ReplicaNode::resend_last_replies(GroupId group, TimeNs since) {
  for (const auto& [session, s] : sessions_) {
    if (s.last_seq == 0) continue;  // proposed here, never executed
    if (group >= 0 &&
        (s.last_group != group || s.left_at == 0 || s.left_at < since)) {
      continue;
    }
    send_cached_reply(s, session, s.last_seq);
  }
}

Bytes ReplicaNode::apply_command(GroupId group, const Command& c) {
  return sm_->apply(group, c.op);
}

Bytes ReplicaNode::snapshot_state() const {
  codec::Writer w;
  w.varint(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    w.u64(id);
    w.u64(s.exec_floor);
    w.varint(s.exec_above.size());
    for (std::uint64_t seq : s.exec_above) w.u64(seq);
    w.u64(s.last_seq);
    w.bytes(s.last_reply);
  }
  // In-flight multi-group gathers are replicated state: a checkpoint can
  // land between two copies of the same command, and instances below the
  // installed tuple are never replayed.
  w.varint(multi_pending_.size());
  for (const auto& [key, pm] : multi_pending_) {
    w.u64(key.first);
    w.u64(key.second);
    w.bytes(pm.command.op);
    w.varint(pm.command.groups.size());
    for (GroupId g : pm.command.groups) w.u32(static_cast<std::uint32_t>(g));
    w.varint(pm.seen.size());
    for (GroupId g : pm.seen) w.u32(static_cast<std::uint32_t>(g));
  }
  w.bytes(sm_->snapshot());
  return w.take();
}

void ReplicaNode::restore_state(const Bytes& data) {
  codec::Reader r(data);
  sessions_.clear();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const SessionId id = r.u64();
    Session s;
    s.exec_floor = r.u64();
    const std::uint64_t above = r.varint();
    for (std::uint64_t j = 0; j < above; ++j) s.exec_above.insert(r.u64());
    s.last_seq = r.u64();
    s.last_reply = r.bytes();
    sessions_[id] = std::move(s);
  }
  multi_pending_.clear();
  const std::uint64_t pn = r.varint();
  for (std::uint64_t i = 0; i < pn; ++i) {
    const SessionId session = r.u64();
    const std::uint64_t seq = r.u64();
    PendingMulti pm;
    pm.command.session = session;
    pm.command.seq = seq;
    pm.command.op = r.bytes();
    const std::uint64_t gn = r.varint();
    for (std::uint64_t j = 0; j < gn; ++j) {
      pm.command.groups.push_back(static_cast<GroupId>(r.u32()));
    }
    const std::uint64_t sn = r.varint();
    for (std::uint64_t j = 0; j < sn; ++j) {
      pm.seen.insert(static_cast<GroupId>(r.u32()));
    }
    multi_pending_[{session, seq}] = std::move(pm);
  }
  sm_->restore(r.bytes());
  r.expect_done();
  // The installed state covers commands this replica never executed. If it
  // answers for one of its rings, its peers left those replies to it.
  for (GroupId g : subscribed_groups()) {
    if (replier(g) != id()) continue;
    resend_last_replies(-1, 0);
    break;
  }
}

}  // namespace mrp::smr
