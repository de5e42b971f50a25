#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "util.hpp"

namespace bench {

using mrp::smr::MsgClientBusy;
using mrp::smr::MsgClientReply;
using mrp::smr::MsgClientRequest;

std::vector<std::int64_t> poisson_offsets(std::uint64_t seed, double rate,
                                          double seconds) {
  MRP_CHECK(rate > 0);
  mrp::Rng rng(seed);
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += rng.next_exponential(1.0 / rate);
    if (t >= seconds) break;
    out.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  return out;
}

std::uint64_t schedule_checksum(const std::vector<std::int64_t>& offsets,
                                RequestSource& source,
                                std::uint64_t ops_seed) {
  mrp::Rng rng(ops_seed);
  std::uint64_t h = fnv1a(offsets.data(), offsets.size() * sizeof(offsets[0]));
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    const mrp::smr::Request q = source.next(rng);
    h = fnv1a(q.op.data(), q.op.size(), h);
    for (const auto& s : q.sends) h = fnv1a(&s.group, sizeof(s.group), h);
  }
  return h;
}

OpenLoop::OpenLoop(RequestSource& source, std::vector<std::int64_t> offsets,
                   OpenLoopConfig config, std::uint64_t ops_seed)
    : source_(source),
      offsets_(std::move(offsets)),
      config_(config),
      ops_rng_(ops_seed),
      n_(offsets_.size()),
      reqs_(std::make_unique<OpenRequest[]>(offsets_.size())),
      slot_req_(std::make_unique<std::atomic<std::uint32_t>[]>(
          config.sessions)),
      slot_seq_(config.sessions, 0) {
  MRP_CHECK(config_.sessions > 0 && config_.session_base + config_.sessions <=
                                        0x100000);  // smr worker index bits
  const auto warm = static_cast<std::int64_t>(config_.warmup_s * 1e9);
  const auto end = warm + static_cast<std::int64_t>(config_.window_s * 1e9);
  std::uint32_t in_window = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    OpenRequest& r = reqs_[i];
    r.window = offsets_[i] < warm ? 0 : offsets_[i] < end ? 1 : 2;
    if (r.window == 1) {
      r.sampled = config_.sample_every > 0 &&
                  in_window % config_.sample_every == 0;
      ++in_window;
    }
  }
  lateness_.reserve(in_window);
  inflight_.reserve(n_);
  free_slots_.reserve(config_.sessions);
  for (std::uint32_t s = config_.sessions; s > 0; --s) {
    free_slots_.push_back(s - 1);
  }
}

void OpenLoop::release_slot(std::uint32_t slot) {
  std::lock_guard<std::mutex> lk(free_mu_);
  free_slots_.push_back(slot);
}

void OpenLoop::expire(std::int64_t now) {
  while (inflight_head_ < inflight_.size()) {
    OpenRequest& r = reqs_[inflight_[inflight_head_]];
    std::uint8_t st = r.state.load(std::memory_order_acquire);
    if (st == kPending) {
      if (now < r.due + config_.fail_after_ns) break;
      // Loses to a reply that lands concurrently; re-read the state then.
      if (!r.state.compare_exchange_strong(st, kFailed,
                                           std::memory_order_acq_rel)) {
        continue;
      }
      release_slot(r.slot);
    }
    ++inflight_head_;
  }
}

void OpenLoop::generate(mrp::runtime::Runtime& sink_rt, std::int64_t t0) {
  // The default 50 us timer slack would make most wake-ups late by itself.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  gen_tid_.store(current_tid());
  for (std::size_t i = 0; i < n_; ++i) {
    OpenRequest& r = reqs_[i];
    r.due = t0 + offsets_[i];
    // Build before sleeping so request construction never makes a send late.
    mrp::smr::Request q = source_.next(ops_rng_);
    MRP_CHECK_MSG(q.sends.size() == 1 && !q.sends[0].targets.empty(),
                  "open loop sends single-group requests");
    if (mono_ns() < r.due) {
      expire(mono_ns());
      if (mono_ns() < r.due) sleep_until_ns(r.due);
    }
    std::uint32_t slot = 0;
    bool have_slot = false;
    for (int attempt = 0; attempt < 2 && !have_slot; ++attempt) {
      {
        std::lock_guard<std::mutex> lk(free_mu_);
        if (!free_slots_.empty()) {
          slot = free_slots_.back();
          free_slots_.pop_back();
          have_slot = true;
        }
      }
      if (!have_slot) expire(mono_ns());
    }
    if (!have_slot) {
      // Every session is busy with an unanswered request: this one cannot
      // even be sent, which is a failure like any other.
      r.state.store(kFailed, std::memory_order_release);
      ++no_session_;
      continue;
    }
    r.slot = slot;
    r.seq = ++slot_seq_[slot];
    r.targets = std::move(q.sends[0].targets);
    auto msg = std::make_shared<MsgClientRequest>();
    msg->group = q.sends[0].group;
    msg->command.session =
        mrp::smr::make_session(config_.sink, config_.session_base + slot);
    msg->command.seq = r.seq;
    msg->command.op = std::move(q.op);
    r.msg = msg;
    r.sent = mono_ns();
    slot_req_[slot].store(static_cast<std::uint32_t>(i + 1),
                          std::memory_order_release);
    sink_rt.send(r.targets[0], std::move(msg));
    if (r.window == 1) lateness_.push_back(r.sent - r.due);
    inflight_.push_back(i);
  }
  while (inflight_head_ < inflight_.size()) {
    expire(mono_ns());
    sleep_until_ns(mono_ns() + 200'000);
  }
}

OpenRequest* OpenLoop::lookup(mrp::smr::SessionId session,
                              std::uint64_t seq) {
  if (mrp::smr::session_client(session) != config_.sink) return nullptr;
  const auto worker = static_cast<std::uint32_t>(session & 0xfffff);
  if (worker < config_.session_base ||
      worker >= config_.session_base + config_.sessions) {
    return nullptr;
  }
  const std::uint32_t v =
      slot_req_[worker - config_.session_base].load(std::memory_order_acquire);
  if (v == 0) return nullptr;
  OpenRequest* r = &reqs_[v - 1];
  return r->seq == seq ? r : nullptr;  // else another use of the slot
}

OpenRequest* OpenLoop::find_sampled(mrp::smr::SessionId session,
                                    std::uint64_t seq) {
  OpenRequest* r = lookup(session, seq);
  return r != nullptr && r->sampled ? r : nullptr;
}

void OpenLoop::on_reply(ProcessId from, const MsgClientReply& reply,
                        std::int64_t now) {
  OpenRequest* r = lookup(reply.session, reply.seq);
  // Every replica answers; the first reply wins and the rest are dropped.
  if (r == nullptr || r->state.load(std::memory_order_acquire) != kPending) {
    return;
  }
  const bool ok = source_.check_reply(r->msg->command.op, reply.result);
  r->reply.store(now, std::memory_order_relaxed);
  r->replier.store(from, std::memory_order_relaxed);
  std::uint8_t expected = kPending;
  if (r->state.compare_exchange_strong(expected, ok ? kOk : kWrong,
                                       std::memory_order_acq_rel)) {
    release_slot(r->slot);
    r->msg.reset();  // only this thread touches msg after publication
  }
}

void OpenLoop::on_busy(mrp::runtime::Node& sink, const MsgClientBusy& busy) {
  OpenRequest* r = lookup(busy.session, busy.seq);
  if (r == nullptr || r->state.load(std::memory_order_acquire) != kPending) {
    return;
  }
  busy_.fetch_add(1, std::memory_order_relaxed);
  ++r->cursor;  // another candidate proposer may have capacity
  const ProcessId to = r->targets[r->cursor % r->targets.size()];
  const std::uint64_t seq = busy.seq;
  sink.after(std::max<mrp::TimeNs>(busy.retry_after, 0), [r, seq, to, &sink] {
    if (r->seq != seq || !r->msg ||
        r->state.load(std::memory_order_acquire) != kPending) {
      return;
    }
    sink.send(to, r->msg);
  });
}

void SinkNode::on_message(ProcessId from, const mrp::runtime::Message& m) {
  const std::int64_t now = mono_ns();
  OpenLoop* loop = loop_.load();
  if (loop == nullptr) return;
  if (m.kind() == mrp::smr::kMsgClientReply) {
    loop->on_reply(from, mrp::runtime::msg_cast<MsgClientReply>(m), now);
  } else if (m.kind() == mrp::smr::kMsgClientBusy) {
    loop->on_busy(*this, mrp::runtime::msg_cast<MsgClientBusy>(m));
  }
}

void ClosedHost::start_client(mrp::smr::ClientNode::Options options,
                              mrp::smr::ClientNode::NextFn next,
                              mrp::smr::ClientNode::DoneFn done) {
  MRP_CHECK_MSG(!client_, "closed-loop client already started");
  client_ = std::make_unique<mrp::smr::ClientNode>(
      rt(), options, std::move(next), std::move(done));
  client_->on_start();
}

void ClosedHost::on_message(ProcessId from, const mrp::runtime::Message& m) {
  if (client_) client_->on_message(from, m);
}

}  // namespace bench
