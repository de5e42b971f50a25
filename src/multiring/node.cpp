#include "multiring/node.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "ringpaxos/messages.hpp"

namespace mrp::multiring {

namespace {
constexpr const char* kStableConfigKey = "multiring/config";
}  // namespace

MultiRingNode::MultiRingNode(runtime::Runtime& rt, coord::Registry* registry,
                             NodeConfig config)
    : runtime::Node(rt), registry_(registry), config_(std::move(config)) {
  MRP_CHECK(registry_ != nullptr);
  // Dynamic attach/detach calls persist the effective configuration; a
  // recovered node resumes from it rather than the spawn-time snapshot.
  const NodeConfig& saved = rt.stable<NodeConfig>(kStableConfigKey);
  if (!saved.rings.empty()) config_ = saved;
  MRP_CHECK_MSG(!config_.rings.empty(), "node participates in no ring");

  std::vector<GroupId> learner_groups;
  for (const RingSub& sub : config_.rings) {
    if (sub.learner) learner_groups.push_back(sub.group);
  }
  // The delivery dedup set grows to its 200k bound under sustained load;
  // sizing it up front keeps incremental rehashing off the delivery path.
  delivered_ids_.reserve(200'001);

  if (!learner_groups.empty()) {
    merger_ = std::make_unique<DeterministicMerger>(
        std::vector<GroupId>{}, config_.merge_m,
        [this](GroupId g, InstanceId i, const paxos::Value& v) {
          deliver_merged(g, i, v);
        });
    // Activate each group at its persisted bootstrap position (0 unless the
    // group was attached mid-stream): a recovered node re-enters the merge
    // where its partition peers spliced it in.
    for (GroupId g : learner_groups) merger_->add_group(g, start_of(g));
    registry_->set_subscriptions(id(), learner_groups);
  }

  for (const RingSub& sub : config_.rings) {
    MRP_CHECK_MSG(handlers_.find(sub.group) == handlers_.end(),
                  "duplicate ring in node config");
    make_handler(sub);
  }
}

InstanceId MultiRingNode::start_of(GroupId group) const {
  auto it = config_.start_instances.find(group);
  return it == config_.start_instances.end() ? 0 : it->second;
}

void MultiRingNode::make_handler(const RingSub& sub) {
  const bool learner = sub.learner;
  auto handler = std::make_unique<ringpaxos::RingHandler>(
      *this, *registry_, sub.group, sub.params,
      [this, learner](GroupId g, InstanceId i, const paxos::Value& v) {
        if (!learner) return;
        merger_->on_decision(g, i, v);
        check_demand_soon();
      });
  handler->set_trimmed_gap_handler(
      [this](GroupId g, InstanceId trimmed_to) {
        on_trimmed_gap(g, trimmed_to);
      });
  handler->set_own_delivered([this](GroupId g, const paxos::Value& v) {
    on_own_value_delivered(g, v);
  });
  if (const InstanceId start = start_of(sub.group); start > 0) {
    // Mid-stream joiner: instances below the bootstrap position are covered
    // by installed state — don't retransmit them.
    handler->set_delivery_floor(start);
  }
  handlers_[sub.group] = std::move(handler);
}

void MultiRingNode::check_demand_soon() {
  if (demand_check_armed_ || !merger_ || merger_->groups().size() < 2) return;
  // Once per event batch: the zero-delay timer fires after the current
  // batch drains, so a burst of decisions costs one check.
  demand_check_armed_ = true;
  after(0, [this] {
    demand_check_armed_ = false;
    check_demand();
  });
}

void MultiRingNode::check_demand() {
  if (!merger_) return;
  const std::optional<DeterministicMerger::Demand> d = merger_->demand();
  if (!d) return;
  // The stalled group has nothing buffered, so its handler's delivery
  // watermark is the merged position: skip `owed` instances beyond it.
  if (auto* h = handler(d->group)) h->request_skip(h->next_delivery() + d->owed);
}

void MultiRingNode::persist_config() {
  rt().stable<NodeConfig>(kStableConfigKey) = config_;
}

void MultiRingNode::publish_subscriptions() {
  registry_->set_subscriptions(id(), subscribed_groups());
}

void MultiRingNode::attach_ring(const RingSub& sub, InstanceId start_instance) {
  MRP_CHECK_MSG(handlers_.find(sub.group) == handlers_.end(),
                "already joined this ring");
  config_.rings.push_back(sub);
  if (start_instance > 0) config_.start_instances[sub.group] = start_instance;
  persist_config();
  if (sub.learner) {
    if (!merger_) {
      merger_ = std::make_unique<DeterministicMerger>(
          std::vector<GroupId>{}, config_.merge_m,
          [this](GroupId g, InstanceId i, const paxos::Value& v) {
            deliver_merged(g, i, v);
          });
    }
    merger_->add_group(sub.group, start_instance);
    publish_subscriptions();
  }
  make_handler(sub);
}

void MultiRingNode::detach_ring(GroupId group) {
  auto it = handlers_.find(group);
  MRP_CHECK_MSG(it != handlers_.end(), "not joined to this ring");
  it->second->detach();
  retired_.push_back(std::move(it->second));
  handlers_.erase(it);

  bool was_learner = false;
  for (auto cit = config_.rings.begin(); cit != config_.rings.end(); ++cit) {
    if (cit->group == group) {
      was_learner = cit->learner;
      config_.rings.erase(cit);
      break;
    }
  }
  config_.start_instances.erase(group);
  persist_config();
  if (was_learner) {
    merger_->remove_group(group);
    publish_subscriptions();
  }
}

ValueId MultiRingNode::multicast(GroupId group, Payload payload) {
  auto* h = handler(group);
  MRP_CHECK_MSG(h != nullptr, "multicast to a ring this node has not joined");
  return h->propose(std::move(payload));
}

std::vector<ValueId> MultiRingNode::multicast_all(
    const std::vector<GroupId>& groups, const Payload& payload) {
  std::vector<ValueId> ids;
  ids.reserve(groups.size());
  for (GroupId g : groups) ids.push_back(multicast(g, payload));
  return ids;
}

ringpaxos::RingHandler* MultiRingNode::handler(GroupId group) {
  auto it = handlers_.find(group);
  return it == handlers_.end() ? nullptr : it->second.get();
}

std::vector<GroupId> MultiRingNode::subscribed_groups() const {
  std::vector<GroupId> out;
  for (const RingSub& sub : config_.rings) {
    if (sub.learner) out.push_back(sub.group);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MultiRingNode::on_message(ProcessId from, const runtime::Message& m) {
  if (m.kind() == coord::kMsgViewChange) {
    const auto& vc = runtime::msg_cast<coord::MsgViewChange>(m);
    if (auto* h = handler(vc.view.ring)) h->on_view(vc.view);
    return;
  }
  if (m.kind() == coord::kMsgAcceptorPrep) {
    const auto& pm = runtime::msg_cast<coord::MsgAcceptorPrep>(m);
    if (auto* h = handler(pm.ring)) h->on_acceptor_prep(pm);
    return;
  }
  if (m.kind() >= 100 && m.kind() <= 199) {
    const auto& rm = runtime::msg_cast<ringpaxos::RingMessage>(m);
    if (auto* h = handler(rm.ring)) h->handle(from, m);
    return;
  }
  on_app_message(from, m);
}

void MultiRingNode::on_app_message(ProcessId /*from*/,
                                   const runtime::Message& /*m*/) {}

void MultiRingNode::on_trimmed_gap(GroupId /*group*/,
                                   InstanceId /*trimmed_to*/) {}

void MultiRingNode::on_own_value_delivered(GroupId /*group*/,
                                           const paxos::Value& /*v*/) {}

void MultiRingNode::deliver_merged(GroupId group, InstanceId instance,
                                   const paxos::Value& v) {
  const GroupValueId key{group, v.id};
  if (!delivered_ids_.insert(key).second) return;  // duplicate decision
  delivered_order_.push_back(key);
  if (delivered_order_.size() > 200'000) {
    delivered_ids_.erase(delivered_order_.front());
    delivered_order_.pop_front();
  }
  if (observer_) observer_(group, instance, v.payload);
  if (app_deliver_) app_deliver_(group, instance, v.payload);
}

}  // namespace mrp::multiring
