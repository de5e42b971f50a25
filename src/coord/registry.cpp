#include "coord/registry.hpp"

#include <algorithm>

#include "common/backoff.hpp"
#include "common/check.hpp"

namespace mrp::coord {

bool RingView::contains(ProcessId p) const {
  return std::find(members.begin(), members.end(), p) != members.end();
}

bool RingView::is_acceptor(ProcessId p) const {
  return std::find(acceptors.begin(), acceptors.end(), p) != acceptors.end();
}

ProcessId RingView::successor(ProcessId p) const {
  auto it = std::find(members.begin(), members.end(), p);
  MRP_CHECK_MSG(it != members.end(), "successor of non-member");
  ++it;
  return it == members.end() ? members.front() : *it;
}

Registry::Registry(runtime::Runtime& rt, TimeNs fd_interval)
    : rt_(rt), fd_interval_(fd_interval) {
  MRP_CHECK(fd_interval > 0);
  // Failure-detector poll loop; the registry lives as long as its runtime
  // (oracles never crash, so the repeating timer never dies).
  rt_.every(fd_interval_, [this] {
    std::lock_guard<std::mutex> lk(mu_);
    poll();
  });
}

void Registry::create_ring(const RingConfig& config) {
  std::lock_guard<std::mutex> lk(mu_);
  MRP_CHECK(config.ring >= 0);
  MRP_CHECK_MSG(!config.order.empty(), "ring needs at least one member");
  MRP_CHECK_MSG(!config.acceptors.empty(), "ring needs at least one acceptor");
  for (ProcessId a : config.acceptors) {
    MRP_CHECK_MSG(
        std::find(config.order.begin(), config.order.end(), a) != config.order.end(),
        "acceptor not in ring order");
  }
  MRP_CHECK(config.fd.interval >= 0);
  MRP_CHECK(config.fd.jitter >= 0.0 && config.fd.jitter <= 1.0);
  MRP_CHECK_MSG(rings_.find(config.ring) == rings_.end(), "ring exists");
  RingState& rs = rings_[config.ring];
  rs.config = config;
  // The initial view optimistically includes every configured member:
  // deployments create rings before spawning the member processes, and the
  // failure-detector poll prunes anything that never comes up.
  const std::set<ProcessId> all(config.order.begin(), config.order.end());
  rs.view = build_view(config, all, 1, rs.acceptor_view, kNoProcess);
  notify(rs);
  // Rings with their own failure-detector tuning get a dedicated
  // self-rescheduling (and optionally jittered) timer chain; the others
  // ride the registry-wide poll.
  if (config.fd.interval > 0 || config.fd.jitter > 0.0) {
    arm_ring_fd(config.ring);
  }
}

void Registry::arm_ring_fd(GroupId ring) {
  // Lock held. The jitter draw makes simultaneous suspicion storms across
  // rings decohere while staying deterministic under the seeded Rng: each
  // tick lands in [(1-jitter)*interval, interval].
  auto it = rings_.find(ring);
  MRP_CHECK(it != rings_.end());
  const FdParams& fd = it->second.config.fd;
  const TimeNs base = fd.interval > 0 ? fd.interval : fd_interval_;
  TimeNs delay = base;
  if (fd.jitter > 0.0) {
    delay = jittered_backoff(1, BackoffParams{base, base, fd.jitter},
                             rt_.rng());
  }
  rt_.schedule(delay, [this, ring] {
    std::lock_guard<std::mutex> lk(mu_);
    auto ring_it = rings_.find(ring);
    if (ring_it == rings_.end()) return;
    poll_ring(ring_it->second);
    arm_ring_fd(ring);
  });
}

RingView Registry::build_view(const RingConfig& cfg,
                              const std::set<ProcessId>& alive,
                              std::uint64_t epoch,
                              std::uint64_t acceptor_view,
                              ProcessId sticky_coord) {
  RingView v;
  v.ring = cfg.ring;
  v.epoch = epoch;
  v.acceptor_view = acceptor_view;
  v.total_acceptors = cfg.acceptors.size();
  v.configured_acceptors.assign(cfg.acceptors.begin(), cfg.acceptors.end());
  for (ProcessId p : cfg.order) {
    if (!alive.count(p)) continue;
    v.members.push_back(p);
    if (cfg.acceptors.count(p)) v.acceptors.push_back(p);
  }
  // Sticky coordinator — but only while it is both alive and still part of
  // the quorum basis: a reconfiguration may have demoted it to a learner.
  if (sticky_coord != kNoProcess && alive.count(sticky_coord) &&
      cfg.acceptors.count(sticky_coord)) {
    v.coordinator = sticky_coord;
  } else if (!v.acceptors.empty()) {
    v.coordinator = v.acceptors.front();
  }
  return v;
}

const RingView& Registry::current_view(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  return it->second.view;
}

const RingConfig& Registry::config(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  return it->second.config;
}

TimeNs Registry::detection_bound(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  const TimeNs interval = it->second.config.fd.interval;
  return interval > 0 ? interval : fd_interval_;
}

std::vector<GroupId> Registry::rings() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<GroupId> out;
  for (const auto& [id, _] : rings_) out.push_back(id);
  return out;
}

void Registry::bump_view(RingState& rs) {
  std::set<ProcessId> alive;
  for (ProcessId p : rs.config.order) {
    if (rt_.peer_alive(p)) alive.insert(p);
  }
  rs.view = build_view(rs.config, alive, rs.view.epoch + 1, rs.acceptor_view,
                       rs.view.coordinator);
  rs.notified.clear();
  notify(rs);
}

void Registry::add_ring_member(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  MRP_CHECK_MSG(std::find(rs.config.order.begin(), rs.config.order.end(),
                          p) == rs.config.order.end(),
                "already a ring member");
  rs.config.order.push_back(p);
  bump_view(rs);
}

void Registry::remove_ring_member(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  MRP_CHECK_MSG(!rs.config.acceptors.count(p),
                "still an acceptor: remove_acceptor first");
  auto pos = std::find(rs.config.order.begin(), rs.config.order.end(), p);
  MRP_CHECK_MSG(pos != rs.config.order.end(), "not a ring member");
  rs.config.order.erase(pos);
  bump_view(rs);
}

// --- acceptor-set reconfiguration -------------------------------------------

bool Registry::acceptor_alive_majority_safe(const RingState& rs,
                                            ProcessId removing) const {
  // Every old-basis majority must intersect the catch-up source set: then
  // for every decided instance at least one source holds its record, so
  // the union of the source logs covers all decided state. The sources are
  // the alive acceptors MINUS the one being removed (begin_change excludes
  // it even when it is still alive — e.g. a planned decommission — because
  // it leaves the basis at activation), so `removing` must not be counted.
  // |sources| + quorum > n  <=>  sources >= n - quorum + 1.
  const std::size_t n = rs.config.acceptors.size();
  const std::size_t quorum = n / 2 + 1;
  std::size_t sources = 0;
  for (ProcessId a : rs.config.acceptors) {
    if (a == removing) continue;
    if (rt_.peer_alive(a)) ++sources;
  }
  return sources + quorum > n;
}

void Registry::begin_change(RingState& rs, ProcessId add, ProcessId remove,
                            bool drop_removed_member, bool from_auto_heal) {
  MRP_CHECK_MSG(!rs.pending.active, "acceptor-set change already pending");
  PendingChange pc;
  pc.active = true;
  pc.seq = ++change_seq_;
  pc.add = add;
  pc.remove = remove;
  pc.drop_removed_member = drop_removed_member;
  pc.from_auto_heal = from_auto_heal;
  // The joiner drains the UNION of every alive acceptor's log before the
  // basis switches: with a simultaneous remove+add the old and new
  // majorities need not intersect, so no single log is guaranteed to hold
  // every decided instance — the union of all alive ones is (see
  // acceptor_alive_majority_safe).
  for (ProcessId a : rs.config.acceptors) {
    if (a == add || a == remove) continue;
    if (rt_.peer_alive(a)) pc.sources.push_back(a);
  }
  MRP_CHECK_MSG(!pc.sources.empty(), "no alive acceptor to catch up from");
  rs.pending = std::move(pc);
  send_prep(rs);
}

void Registry::send_prep(RingState& rs) {
  if (!rt_.peer_alive(rs.pending.add)) return;
  auto msg = std::make_shared<MsgAcceptorPrep>();
  msg->ring = rs.config.ring;
  msg->seq = rs.pending.seq;
  msg->sources = rs.pending.sources;
  rt_.send(rs.pending.add, msg);
}

void Registry::add_acceptor(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  MRP_CHECK_MSG(!rs.config.acceptors.count(p), "already an acceptor");
  MRP_CHECK_MSG(rs.config.acceptors.size() < 64,
                "vote mask holds 64 acceptors");
  if (std::find(rs.config.order.begin(), rs.config.order.end(), p) ==
      rs.config.order.end()) {
    // Joining as a member first: it follows the decision stream as a
    // learner while it catches up on the acceptor log.
    rs.config.order.push_back(p);
    bump_view(rs);
  }
  begin_change(rs, p, kNoProcess, /*drop_removed_member=*/false,
               /*from_auto_heal=*/false);
}

void Registry::remove_acceptor(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  MRP_CHECK_MSG(rs.config.acceptors.count(p), "not an acceptor");
  MRP_CHECK_MSG(rs.config.acceptors.size() >= 2,
                "cannot remove the last acceptor");
  MRP_CHECK_MSG(!rs.pending.active,
                "acceptor-set change already pending");
  // Single-step shrink is intersection-safe (any n/2+1 of n and any
  // (n-1)/2+1 of n-1 overlap), so the new basis activates immediately.
  rs.config.acceptors.erase(p);
  rs.suspect_since.erase(p);
  ++rs.acceptor_view;
  bump_view(rs);
}

void Registry::replace_acceptor(GroupId ring, ProcessId dead,
                                ProcessId standby) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  MRP_CHECK_MSG(rs.config.acceptors.count(dead), "not an acceptor");
  MRP_CHECK_MSG(!rs.config.acceptors.count(standby), "already an acceptor");
  MRP_CHECK_MSG(rt_.peer_alive(standby), "replacement is not alive");
  MRP_CHECK_MSG(!rs.pending.active, "acceptor-set change already pending");
  MRP_CHECK_MSG(acceptor_alive_majority_safe(rs, dead),
                "too many dead acceptors: alive logs cannot cover every "
                "decided instance");
  std::erase(rs.config.standbys, standby);
  if (std::find(rs.config.order.begin(), rs.config.order.end(), standby) ==
      rs.config.order.end()) {
    rs.config.order.push_back(standby);
    bump_view(rs);
  }
  begin_change(rs, standby, dead, /*drop_removed_member=*/true,
               /*from_auto_heal=*/false);
}

void Registry::add_standby(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  RingState& rs = it->second;
  if (std::find(rs.config.standbys.begin(), rs.config.standbys.end(), p) ==
      rs.config.standbys.end()) {
    rs.config.standbys.push_back(p);
  }
}

void Registry::acceptor_synced(GroupId ring, ProcessId p, std::uint64_t seq) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  if (it == rings_.end()) return;
  RingState& rs = it->second;
  if (!rs.pending.active || rs.pending.add != p || rs.pending.seq != seq) {
    return;  // stale confirmation of an aborted/restarted change attempt
  }
  const PendingChange pc = rs.pending;
  rs.pending = PendingChange{};
  if (std::find(rs.config.order.begin(), rs.config.order.end(), pc.add) ==
      rs.config.order.end()) {
    rs.config.order.push_back(pc.add);
  }
  rs.config.acceptors.insert(pc.add);
  if (pc.remove != kNoProcess) {
    rs.config.acceptors.erase(pc.remove);
    rs.suspect_since.erase(pc.remove);
    if (pc.drop_removed_member) {
      std::erase(rs.config.order, pc.remove);
    }
  }
  if (pc.from_auto_heal) ++heal_count_;
  // Activation: new quorum basis under a bumped acceptor view; the epoch
  // bump forces the (possibly new) coordinator to re-run Phase 1 with a
  // round higher than anything the old basis used.
  ++rs.acceptor_view;
  bump_view(rs);
}

std::uint64_t Registry::acceptor_view(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  return it->second.acceptor_view;
}

std::vector<ProcessId> Registry::standbys(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  return it->second.config.standbys;
}

bool Registry::change_pending(GroupId ring) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  return it->second.pending.active;
}

std::uint64_t Registry::heal_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return heal_count_;
}

void Registry::watch_ring(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  MRP_CHECK_MSG(it != rings_.end(), "unknown ring");
  it->second.watchers.insert(p);
  auto msg = std::make_shared<MsgViewChange>();
  msg->view = it->second.view;
  rt_.send(p, msg);
  it->second.notified.insert(p);
}

void Registry::unwatch_ring(GroupId ring, ProcessId p) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rings_.find(ring);
  if (it == rings_.end()) return;
  it->second.watchers.erase(p);
  it->second.notified.erase(p);
}

void Registry::set_subscriptions(ProcessId p, std::vector<GroupId> groups) {
  std::lock_guard<std::mutex> lk(mu_);
  std::sort(groups.begin(), groups.end());
  subscriptions_[p] = groups;
  const std::uint64_t epoch = ++sub_epochs_[p];
  for (ProcessId w : sub_watchers_) {
    if (!rt_.peer_alive(w)) continue;
    auto msg = std::make_shared<MsgSubChange>();
    msg->process = p;
    msg->epoch = epoch;
    msg->groups = groups;
    rt_.send(w, msg);
  }
}

std::vector<GroupId> Registry::subscriptions(ProcessId p) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = subscriptions_.find(p);
  return it == subscriptions_.end() ? std::vector<GroupId>{} : it->second;
}

std::uint64_t Registry::subscription_epoch(ProcessId p) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = sub_epochs_.find(p);
  return it == sub_epochs_.end() ? 0 : it->second;
}

std::vector<ProcessId> Registry::subscribers(GroupId group) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ProcessId> out;
  for (const auto& [p, groups] : subscriptions_) {
    if (std::find(groups.begin(), groups.end(), group) != groups.end()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<ProcessId> Registry::partition_peers(ProcessId p) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = subscriptions_.find(p);
  MRP_CHECK_MSG(it != subscriptions_.end(), "process has no subscriptions");
  std::vector<ProcessId> out;
  for (const auto& [q, groups] : subscriptions_) {
    if (groups == it->second) out.push_back(q);
  }
  return out;
}

void Registry::watch_subscriptions(ProcessId watcher) {
  std::lock_guard<std::mutex> lk(mu_);
  sub_watchers_.insert(watcher);
}

std::uint64_t Registry::publish_schema(const std::string& key,
                                       const std::string& encoded) {
  std::lock_guard<std::mutex> lk(mu_);
  SchemaState& ss = schemas_[key];
  ++ss.entry.version;
  ss.entry.encoded = encoded;
  for (ProcessId w : ss.watchers) {
    if (!rt_.peer_alive(w)) continue;
    auto msg = std::make_shared<MsgSchemaChange>();
    msg->key = key;
    msg->entry = ss.entry;
    rt_.send(w, msg);
  }
  return ss.entry.version;
}

const SchemaEntry& Registry::schema(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  static const SchemaEntry kEmpty;
  auto it = schemas_.find(key);
  return it == schemas_.end() ? kEmpty : it->second.entry;
}

void Registry::watch_schema(const std::string& key, ProcessId watcher) {
  std::lock_guard<std::mutex> lk(mu_);
  SchemaState& ss = schemas_[key];
  ss.watchers.insert(watcher);
  if (ss.entry.version == 0) return;
  auto msg = std::make_shared<MsgSchemaChange>();
  msg->key = key;
  msg->entry = ss.entry;
  rt_.send(watcher, msg);
}

void Registry::set_meta(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lk(mu_);
  meta_[key] = value;
}

std::string Registry::get_meta(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = meta_.find(key);
  return it == meta_.end() ? std::string{} : it->second;
}

void Registry::check_now() {
  std::lock_guard<std::mutex> lk(mu_);
  // A forced check covers every ring, including those with a custom
  // failure-detector chain that the registry-wide poll() deliberately
  // skips — callers expect an immediate answer, not the next timer tick.
  for (auto& [_, rs] : rings_) poll_ring(rs);
}

void Registry::poll() {
  for (auto& [_, rs] : rings_) {
    // Rings with their own failure-detector chain (custom interval/jitter)
    // are polled by that chain, not the registry-wide tick.
    if (rs.config.fd.interval > 0 || rs.config.fd.jitter > 0.0) continue;
    poll_ring(rs);
  }
}

void Registry::poll_ring(RingState& rs) {
  // Track how long each configured acceptor has been dead (first-seen
  // timestamp; erased the moment it answers again) — the input to the
  // permanently-suspect decision.
  const TimeNs now = rt_.now();
  for (ProcessId a : rs.config.acceptors) {
    if (rt_.peer_alive(a)) {
      rs.suspect_since.erase(a);
    } else {
      rs.suspect_since.emplace(a, now);  // keeps the earliest sighting
    }
  }
  recompute(rs);
  check_pending(rs);
  check_suspects(rs);
}

void Registry::check_pending(RingState& rs) {
  if (!rs.pending.active) return;
  if (!rt_.peer_alive(rs.pending.add)) {
    // The joiner died mid-catch-up: abort. An auto-heal retries with the
    // next standby on a later tick; the dead draftee is not returned to
    // the pool.
    rs.pending = PendingChange{};
    return;
  }
  for (ProcessId s : rs.pending.sources) {
    if (rt_.peer_alive(s)) continue;
    // A sync source died: the union the joiner is draining may no longer
    // cover every decided instance. Restart the change with a fresh seq
    // and the current alive-source list (the joiner switches over when the
    // new prep arrives) — unless too few acceptors survive for the union
    // to be sufficient, in which case the change is abandoned. This is a
    // runtime failure pattern, not operator misuse, so it must degrade to
    // "no change" rather than trip begin_change's non-empty-sources check.
    const PendingChange old = rs.pending;
    rs.pending = PendingChange{};
    if (old.remove != kNoProcess &&
        !acceptor_alive_majority_safe(rs, old.remove)) {
      return;
    }
    bool have_source = false;
    for (ProcessId a : rs.config.acceptors) {
      if (a == old.add || a == old.remove) continue;
      if (rt_.peer_alive(a)) {
        have_source = true;
        break;
      }
    }
    if (!have_source) return;
    begin_change(rs, old.add, old.remove, old.drop_removed_member,
                 old.from_auto_heal);
    return;
  }
  // Preps are fire-and-forget over a lossy network: re-send every tick
  // while the change is pending (the joiner dedups by seq).
  send_prep(rs);
}

void Registry::check_suspects(RingState& rs) {
  const FdParams& fd = rs.config.fd;
  if (!fd.auto_heal || rs.pending.active) return;
  const TimeNs now = rt_.now();
  for (ProcessId a : rs.config.acceptors) {
    auto it = rs.suspect_since.find(a);
    if (it == rs.suspect_since.end()) continue;
    if (now - it->second < fd.suspect_grace) continue;
    // Permanently suspect: draft the first healthy standby. If none is
    // available (or too many acceptors are down to swap safely), retry on
    // a later tick — the suspicion record keeps aging.
    ProcessId draft = kNoProcess;
    for (ProcessId s : rs.config.standbys) {
      if (rt_.peer_alive(s) && !rs.config.acceptors.count(s)) {
        draft = s;
        break;
      }
    }
    if (draft == kNoProcess) return;
    if (!acceptor_alive_majority_safe(rs, a)) return;
    std::erase(rs.config.standbys, draft);
    if (std::find(rs.config.order.begin(), rs.config.order.end(), draft) ==
        rs.config.order.end()) {
      rs.config.order.push_back(draft);
      bump_view(rs);
    }
    begin_change(rs, draft, a, /*drop_removed_member=*/true,
                 /*from_auto_heal=*/true);
    return;  // one change at a time
  }
}

void Registry::recompute(RingState& rs) {
  std::set<ProcessId> alive;
  for (ProcessId p : rs.config.order) {
    if (rt_.peer_alive(p)) alive.insert(p);
  }
  std::set<ProcessId> current(rs.view.members.begin(), rs.view.members.end());
  if (alive != current) {
    rs.view = build_view(rs.config, alive, rs.view.epoch + 1,
                         rs.acceptor_view, rs.view.coordinator);
    rs.notified.clear();
  }
  notify(rs);
}

void Registry::notify(RingState& rs) {
  for (ProcessId w : rs.watchers) {
    if (!rt_.peer_alive(w)) {
      // Crashed watcher: forget, so it is re-notified after recovery.
      rs.notified.erase(w);
      continue;
    }
    if (rs.notified.count(w)) continue;
    auto msg = std::make_shared<MsgViewChange>();
    msg->view = rs.view;
    rt_.send(w, msg);
    rs.notified.insert(w);
  }
}

}  // namespace mrp::coord
