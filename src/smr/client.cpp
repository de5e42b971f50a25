#include "smr/client.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace mrp::smr {

Request Request::single(GroupId group, std::vector<ProcessId> targets,
                        Bytes op) {
  Request r;
  r.sends.push_back(Send{group, std::move(targets)});
  r.op = std::move(op);
  r.expected_partitions = 1;
  return r;
}

std::vector<GroupId> Request::group_set() const {
  std::vector<GroupId> groups;
  groups.reserve(sends.size());
  for (const Send& s : sends) groups.push_back(s.group);
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  return groups;
}

ClientNode::ClientNode(runtime::Runtime& rt, Options options,
                       NextFn next, DoneFn done)
    : runtime::Node(rt),
      options_(options),
      next_(std::move(next)),
      done_(std::move(done)) {
  MRP_CHECK(next_ != nullptr);
  MRP_CHECK(options_.workers >= 1);
  workers_.resize(options_.workers);
}

void ClientNode::on_start() {
  for (std::uint32_t w = 0; w < options_.workers; ++w) {
    if (options_.start_delay > 0) {
      after(options_.start_delay * (w + 1) / options_.workers,
            [this, w] { issue_next(w); });
    } else {
      issue_next(w);
    }
  }
}

void ClientNode::issue_next(std::uint32_t worker) {
  if (stopped_) return;
  if (options_.max_outstanding > 0 && active_ >= options_.max_outstanding) {
    parked_.push_back(worker);  // window full: wait for a slot
    return;
  }
  std::optional<Request> req = next_(worker);
  if (!req) return;  // worker retired
  Outstanding& o = workers_[worker];
  o.busy_attempts = 0;
  o.reroute_attempts = 0;
  issue_request(worker, std::move(*req), now());
}

void ClientNode::issue_request(std::uint32_t worker, Request req,
                               TimeNs issued_at) {
  MRP_CHECK_MSG(!req.sends.empty(), "request with no sends");

  Outstanding& o = workers_[worker];
  o.request = std::move(req);
  const std::uint32_t set = set_index(o);
  if (o.session_seq.size() <= set) o.session_seq.resize(set + 1, 0);
  o.session = make_session(id(), worker, set);
  o.seq = ++o.session_seq[set];
  o.issued_at = issued_at;
  o.results.clear();
  o.target_cursor.assign(o.request.sends.size(), 0);
  o.retry_attempts = 0;
  if (o.reserved) {
    o.reserved = false;  // the reroute held this slot through its backoff
  } else if (!o.active) {
    ++active_;
  }
  o.active = true;

  for (std::size_t i = 0; i < o.request.sends.size(); ++i) {
    send_command(worker, i);
  }
  queue_first_check(worker);
}

std::uint32_t ClientNode::set_index(Outstanding& o) {
  // The destination set is the sorted group set of the request's sends.
  // Single-send requests (nearly all) find theirs without allocating.
  const auto next = static_cast<std::uint32_t>(single_sets_.size() +
                                               multi_sets_.size());
  std::uint32_t index = 0;
  bool added = false;
  if (o.request.sends.size() == 1) {
    auto [it, inserted] =
        single_sets_.try_emplace(o.request.sends.front().group, next);
    index = it->second;
    added = inserted;
  } else {
    o.groups = o.request.group_set();
    auto [it, inserted] = multi_sets_.try_emplace(o.groups, next);
    index = it->second;
    added = inserted;
  }
  MRP_CHECK_MSG(!added || next < kSessionSets,
                "client addresses more destination group sets than a "
                "session id can number");
  return index;
}

void ClientNode::send_command(std::uint32_t worker, std::size_t send_index) {
  Outstanding& o = workers_[worker];
  const Request::Send& s = o.request.sends[send_index];
  MRP_CHECK(!s.targets.empty());
  const ProcessId target =
      s.targets[o.target_cursor[send_index] % s.targets.size()];

  auto msg = std::make_shared<MsgClientRequest>();
  msg->group = s.group;
  msg->command.session = o.session;
  msg->command.seq = o.seq;
  msg->command.op = o.request.op;
  if (o.request.atomic && o.request.sends.size() > 1) {
    // Atomic multi-group multicast: every copy carries the full addressed
    // set so replicas can gather by (session, seq) and commit once.
    msg->command.groups = o.groups;
  }
  send(target, msg);
}

bool ClientNode::is_current(std::uint32_t worker, SessionId session,
                            std::uint64_t seq) const {
  const Outstanding& o = workers_[worker];
  return o.active && o.session == session && o.seq == seq;
}

void ClientNode::retry(std::uint32_t worker) {
  Outstanding& o = workers_[worker];
  ++retries_;
  ++o.retry_attempts;
  for (std::size_t i = 0; i < o.request.sends.size(); ++i) {
    o.target_cursor[i]++;  // rotate to the next candidate proposer
    send_command(worker, i);
  }
  // Once a request has been retried, later checks back off exponentially
  // with jitter so a congested system is not hammered at a fixed period.
  // They are rare, so each gets its own timer.
  const TimeNs delay = jittered_backoff(
      o.retry_attempts,
      BackoffParams{options_.retry_timeout, 8 * options_.retry_timeout, 0.25},
      rng());
  after(delay, [this, worker, session = o.session, seq = o.seq] {
    if (is_current(worker, session, seq)) retry(worker);
  });
}

void ClientNode::queue_first_check(std::uint32_t worker) {
  // The first check fires exactly retry_timeout after issue. now() never
  // decreases, so the new deadline is the latest and goes at the tail.
  Outstanding& o = workers_[worker];
  MRP_CHECK(!o.queued);  // finish() unlinks before any re-issue
  o.deadline = now() + options_.retry_timeout;
  o.prev = first_check_tail_;
  o.next = kNoWorker;
  o.queued = true;
  if (first_check_tail_ == kNoWorker) {
    first_check_head_ = worker;
  } else {
    workers_[first_check_tail_].next = worker;
  }
  first_check_tail_ = worker;
  // An armed timer is due at or before every queued deadline; when it
  // fires it re-arms for the head.
  if (!first_check_timer_) {
    first_check_timer_ = true;
    after(options_.retry_timeout, [this] { on_first_check_timer(); });
  }
}

void ClientNode::unqueue_first_check(std::uint32_t worker) {
  Outstanding& o = workers_[worker];
  if (!o.queued) return;
  if (o.prev == kNoWorker) {
    first_check_head_ = o.next;
  } else {
    workers_[o.prev].next = o.next;
  }
  if (o.next == kNoWorker) {
    first_check_tail_ = o.prev;
  } else {
    workers_[o.next].prev = o.prev;
  }
  o.prev = o.next = kNoWorker;
  o.queued = false;
}

void ClientNode::on_first_check_timer() {
  first_check_timer_ = false;
  while (first_check_head_ != kNoWorker &&
         workers_[first_check_head_].deadline <= now()) {
    const std::uint32_t worker = first_check_head_;
    unqueue_first_check(worker);
    retry(worker);  // queued entries are in flight by construction
  }
  if (first_check_head_ != kNoWorker) {
    first_check_timer_ = true;
    after(workers_[first_check_head_].deadline - now(),
          [this] { on_first_check_timer(); });
  }
}

void ClientNode::handle_busy(const MsgClientBusy& busy) {
  const auto worker = static_cast<std::uint32_t>(busy.session & 0xfffff);
  if (worker >= workers_.size()) return;
  if (!is_current(worker, busy.session, busy.seq)) return;  // stale pushback
  Outstanding& o = workers_[worker];
  // Requests address each group at most once; find the pushed-back send.
  std::size_t index = o.request.sends.size();
  for (std::size_t i = 0; i < o.request.sends.size(); ++i) {
    if (o.request.sends[i].group == busy.group) {
      index = i;
      break;
    }
  }
  if (index == o.request.sends.size()) return;
  ++busy_pushbacks_;
  ++o.busy_attempts;
  o.target_cursor[index]++;  // another candidate may have capacity
  const TimeNs delay = std::max(
      busy.retry_after,
      jittered_backoff(o.busy_attempts, options_.busy_backoff, rng()));
  after(delay, [this, worker, index, session = o.session, seq = o.seq] {
    if (is_current(worker, session, seq)) send_command(worker, index);
  });
}

void ClientNode::finish(std::uint32_t worker) {
  Outstanding& o = workers_[worker];
  o.active = false;
  unqueue_first_check(worker);
  if (active_ > 0) --active_;
}

void ClientNode::maybe_unpark() {
  while (!parked_.empty() && (options_.max_outstanding == 0 ||
                              active_ < options_.max_outstanding)) {
    const std::uint32_t w = parked_.front();
    parked_.pop_front();
    issue_next(w);
  }
}

void ClientNode::on_message(ProcessId /*from*/, const runtime::Message& m) {
  if (m.kind() == kMsgClientBusy) {
    handle_busy(runtime::msg_cast<MsgClientBusy>(m));
    return;
  }
  if (m.kind() != kMsgClientReply) return;
  const auto& reply = runtime::msg_cast<MsgClientReply>(m);
  const SessionId session = reply.session;
  const auto worker = static_cast<std::uint32_t>(session & 0xfffff);
  if (worker >= workers_.size()) return;
  if (!is_current(worker, session, reply.seq)) return;  // stale reply
  Outstanding& o = workers_[worker];
  // The first reply per partition is kept. A later one (a replica answering
  // a retry from its reply cache, a replier takeover's re-send) is dropped;
  // try_emplace copies nothing for it.
  if (!o.results.try_emplace(reply.partition_tag, reply.result).second) return;
  if (o.results.size() < o.request.expected_partitions) return;

  finish(worker);
  const TimeNs latency = now() - o.issued_at;
  Completion c;
  c.worker = worker;
  c.op = std::move(o.request.op);
  c.results = std::move(o.results);
  c.issued_at = o.issued_at;
  c.latency = latency;
  if (reroute_) {
    // A stale-routing reply is not a completion: the hook refreshes its
    // routing state and hands back a re-targeted request, re-issued after a
    // short jittered backoff (the schema publish may still be propagating).
    // The original issue time is kept so end-to-end latency stays honest.
    if (std::optional<Request> rerouted = reroute_(c)) {
      ++reroutes_;
      // The slot stays reserved through the backoff (o.active is false so
      // stale replies for the finished seq are ignored, but the window
      // cannot over-admit while the re-issue is pending).
      o.reserved = true;
      ++active_;
      const TimeNs delay = jittered_backoff(++o.reroute_attempts,
                                            options_.busy_backoff, rng());
      const TimeNs issued_at = o.issued_at;
      after(delay, [this, worker, req = std::move(*rerouted),
                    issued_at]() mutable {
        issue_request(worker, std::move(req), issued_at);
      });
      return;
    }
  }
  latency_.record(latency);
  ++completed_;
  if (done_) {
    done_(c);
  }
  if (options_.think_time > latency) {
    after(options_.think_time - latency, [this, worker] { issue_next(worker); });
  } else {
    issue_next(worker);
  }
  maybe_unpark();
}

}  // namespace mrp::smr
