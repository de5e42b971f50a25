#include "recovery/checkpointing.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/check.hpp"

namespace mrp::recovery {

namespace {
std::string make_partition_key(const std::vector<GroupId>& groups) {
  std::string key;
  for (GroupId g : groups) {
    if (!key.empty()) key += ',';
    key += std::to_string(g);
  }
  return key;
}
}  // namespace

Checkpointer::Checkpointer(multiring::MultiRingNode& node,
                           CheckpointerOptions options, SnapshotFn snapshot,
                           RestoreFn restore)
    : node_(node),
      options_(options),
      snapshot_(std::move(snapshot)),
      restore_(std::move(restore)),
      store_(node.rt(), options.disk_index) {
  MRP_CHECK(snapshot_ != nullptr && restore_ != nullptr);
  MRP_CHECK_MSG(node_.merger() != nullptr, "checkpointer needs a learner node");

  node_.merger()->set_boundary_hook([this] {
    if (pending_checkpoint_ && !saving_ && !recovering_) take_checkpoint();
  });
  if (options_.interval > 0) {
    // Stagger replicas' checkpoints (Section 9 of the paper: replicas do
    // not write checkpoints at the same time, so first-reply-wins clients
    // never see all replicas paused at once).
    const TimeNs offset =
        (static_cast<TimeNs>(node_.id()) % 4) * (options_.interval / 4);
    node_.after(offset, [this] {
      node_.every(options_.interval, [this] { periodic(); });
    });
  }
}

std::string Checkpointer::partition_key() const {
  return make_partition_key(node_.subscribed_groups());
}

void Checkpointer::start() {
  if (auto cp = store_.latest()) {
    install(*cp);
    durable_tuple_ = cp->next;
  }
  query_peers();
}

void Checkpointer::periodic() { checkpoint_soon(); }

void Checkpointer::checkpoint_soon() {
  if (saving_ || recovering_) {
    pending_checkpoint_ = true;
    return;
  }
  if (node_.merger()->at_round_boundary()) {
    take_checkpoint();
  } else {
    pending_checkpoint_ = true;
  }
}

void Checkpointer::take_checkpoint() {
  MRP_CHECK(!saving_);
  if (std::getenv("MRP_DEBUG_CKPT")) {
    std::fprintf(stderr, "[%0.3fs] node %d take_checkpoint\n",
                 to_seconds(node_.now()), node_.id());
  }
  pending_checkpoint_ = false;
  saving_ = true;

  storage::Checkpoint cp;
  cp.next = node_.merger()->tuple();
  cp.state = snapshot_();

  // The paper's replicas write checkpoints synchronously: delivery pauses
  // until the state is on disk (the service masks this because replicas
  // checkpoint at different times and clients take the first reply).
  node_.merger()->pause();
  const storage::CheckpointTuple tuple = cp.next;
  store_.save(std::move(cp), node_.guard([this, tuple] {
    if (std::getenv("MRP_DEBUG_CKPT")) {
      std::fprintf(stderr, "[%0.3fs] node %d checkpoint durable\n",
                   to_seconds(node_.now()), node_.id());
    }
    durable_tuple_ = tuple;
    ++taken_;
    saving_ = false;
    node_.merger()->resume();
    node_.check_demand_soon();
  }));
}

void Checkpointer::install(const storage::Checkpoint& cp) {
  restore_(cp.state);
  // Order matters: advance the merger cursors before raising the handler
  // floors — raising a floor flushes buffered decisions into the merger,
  // which must already be positioned at the checkpoint tuple.
  node_.merger()->install_tuple(cp.next);
  for (const auto& [g, next] : cp.next) {
    // A checkpoint can mention a group the node has since detached from
    // (dynamic subscriptions); only raise floors of live handlers.
    if (auto* h = node_.handler(g)) h->set_delivery_floor(next);
  }
}

void Checkpointer::query_peers() {
  const auto peers = node_.registry().partition_peers(node_.id());
  if (peers.size() <= 1) return;  // no peers: local checkpoint is all there is

  recovering_ = true;
  peer_infos_.clear();
  fetch_inflight_ = false;

  // Seed with our own info so Q_R counts this replica.
  MsgCkptInfo own;
  if (auto cp = store_.latest()) {
    own.has = true;
    own.tuple = cp->next;
    own.sequence = cp->sequence;
  }
  peer_infos_[node_.id()] = own;

  for (ProcessId p : peers) {
    if (p == node_.id()) continue;
    node_.send(p, std::make_shared<MsgCkptQuery>());
  }

  // Keep retrying until a majority answered (peers may be down too).
  node_.after(options_.peer_retry, [this] {
    if (recovering_ && !fetch_inflight_) query_peers();
  });
}

void Checkpointer::maybe_finish_peer_recovery() {
  const auto peers = node_.registry().partition_peers(node_.id());
  const std::size_t quorum = peers.size() / 2 + 1;
  if (peer_infos_.size() < quorum) return;

  // Select the most up-to-date checkpoint in Q_R (Predicate 3).
  ProcessId best = node_.id();
  const MsgCkptInfo* best_info = &peer_infos_[node_.id()];
  for (const auto& [p, info] : peer_infos_) {
    if (!info.has) continue;
    if (!best_info->has ||
        (info.tuple != best_info->tuple &&
         storage::tuple_leq(best_info->tuple, info.tuple))) {
      best = p;
      best_info = &info;
    }
  }

  if (!best_info->has || best == node_.id()) {
    recovering_ = false;  // nothing newer anywhere; continue from here
    return;
  }
  // Install only if the remote checkpoint is ahead of our merge position.
  const storage::CheckpointTuple current = node_.merger()->tuple();
  if (storage::tuple_leq(best_info->tuple, current)) {
    recovering_ = false;
    return;
  }
  fetch_inflight_ = true;
  node_.send(best, std::make_shared<MsgCkptFetch>());
}

bool Checkpointer::handle(ProcessId from, const runtime::Message& m) {
  switch (m.kind()) {
    case kMsgTrimQuery: {
      const auto& q = runtime::msg_cast<MsgTrimQuery>(m);
      auto reply = std::make_shared<MsgTrimReply>();
      reply->group = q.group;
      auto it = durable_tuple_.find(q.group);
      reply->safe = it == durable_tuple_.end() ? 0 : it->second;
      reply->partition_key = partition_key();
      node_.send(from, reply);
      return true;
    }
    case kMsgCkptQuery: {
      auto reply = std::make_shared<MsgCkptInfo>();
      if (auto cp = store_.latest()) {
        reply->has = true;
        reply->tuple = cp->next;
        reply->sequence = cp->sequence;
      }
      node_.send(from, reply);
      return true;
    }
    case kMsgCkptInfo: {
      if (!recovering_ || fetch_inflight_) return true;
      peer_infos_[from] = runtime::msg_cast<MsgCkptInfo>(m);
      maybe_finish_peer_recovery();
      return true;
    }
    case kMsgCkptFetch: {
      auto reply = std::make_shared<MsgCkptState>();
      if (auto cp = store_.latest()) {
        reply->has = true;
        reply->checkpoint = *cp;
      }
      node_.send(from, reply);
      return true;
    }
    case kMsgCkptState: {
      const auto& s = runtime::msg_cast<MsgCkptState>(m);
      fetch_inflight_ = false;
      if (s.has) {
        // Install only if the remote checkpoint is componentwise ahead of
        // our merge position: rolling back any group the local replica has
        // already executed past would corrupt the state.
        const storage::CheckpointTuple current = node_.merger()->tuple();
        if (storage::tuple_leq(current, s.checkpoint.next) &&
            s.checkpoint.next != current) {
          install(s.checkpoint);
          ++remote_installs_;
        }
      }
      recovering_ = false;
      return true;
    }
    default:
      return false;
  }
}

void Checkpointer::request_recovery() {
  if (recovering_) return;
  query_peers();
}

}  // namespace mrp::recovery
