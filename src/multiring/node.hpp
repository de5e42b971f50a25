// MultiRingNode — a process participating in Multi-Ring Paxos.
//
// One node can join any number of rings (as proposer/acceptor per the ring
// configuration) and subscribe to any subset of them as a learner; the
// subscribed decision streams flow through the deterministic merger and come
// out as the node's atomic-multicast delivery sequence. This is the paper's
// "inverted" group-addressing model: clients address one group per multicast
// and each server subscribes to whichever groups it replicates.
//
// Ring participation is dynamic: attach_ring joins a ring (and, for
// learners, splices its stream into the merge at the next round boundary),
// detach_ring leaves one. The effective ring set survives crashes through a
// stable-storage overlay of the node configuration, so a recovered node
// re-creates the handlers it had dynamically acquired.
//
// Subclasses (smr::ReplicaNode, service nodes) override on_app_message for
// their own message kinds and receive merged deliveries via set_deliver.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "coord/registry.hpp"
#include "multiring/merger.hpp"
#include "ringpaxos/ring_handler.hpp"
#include "runtime/node.hpp"

namespace mrp::sim {
class Env;
}

namespace mrp::multiring {

/// Declarative participation in one ring.
struct RingSub {
  GroupId group = -1;
  ringpaxos::RingParams params;
  bool learner = false;  // deliver this group through the merger
};

/// Full node configuration; copyable so the deployment can re-create the
/// node with identical configuration after a crash. Dynamic attach/detach
/// calls keep a crash-surviving copy in the runtime's stable storage, which
/// overrides this at reconstruction.
struct NodeConfig {
  std::vector<RingSub> rings;
  std::uint32_t merge_m = 1;  // M: instances per group per merge round
  /// Bootstrap positions of learner groups joined mid-stream (attach_ring's
  /// start_instance): part of the crash-surviving configuration so a
  /// recovered node re-enters the merge at the position its partition peers
  /// spliced it in at, not at instance 0.
  std::map<GroupId, InstanceId> start_instances;
};

class MultiRingNode : public runtime::Node {
 public:
  /// Application-level delivery (merged across subscribed groups; skips
  /// already filtered). `instance` is the consensus instance in `group`.
  using AppDeliverFn =
      std::function<void(GroupId group, InstanceId instance, const Payload&)>;

  MultiRingNode(runtime::Runtime& rt, coord::Registry* registry,
                NodeConfig config);

  /// Sim convenience: binds to the Env's runtime adapter for `id` (defined
  /// in node_sim.cpp, the only sim-coupled TU of this module).
  MultiRingNode(sim::Env& env, ProcessId id, coord::Registry* registry,
                NodeConfig config);

  /// Installs the application's merged-delivery callback (services and
  /// subclasses own this slot; harnesses use set_delivery_observer).
  void set_deliver(AppDeliverFn fn) { app_deliver_ = std::move(fn); }

  /// Instrumentation hook: invoked for every app-visible merged delivery
  /// (after duplicate suppression), in addition to the set_deliver callback.
  /// Subclasses own set_deliver for their service logic; the observer slot
  /// is reserved for harnesses (the fault layer records delivery sequences
  /// here to check merge determinism without disturbing the node's wiring).
  /// The observer dies with the process on crash — re-attach after recover().
  using DeliveryObserverFn =
      std::function<void(GroupId group, InstanceId instance, const Payload&)>;
  void set_delivery_observer(DeliveryObserverFn fn) {
    observer_ = std::move(fn);
  }

  /// Atomic multicast: propose `payload` to `group` (must be a joined ring).
  ValueId multicast(GroupId group, Payload payload);

  /// Multi-group atomic multicast: propose the same payload on every ring
  /// in `groups` (each must be a joined ring). Returns one value id per
  /// group, in `groups` order — the copies are independent ring values, so
  /// the *application* payload must carry the identity that ties them back
  /// together (smr stamps (session, seq) plus the addressed group set into
  /// the command). A learner subscribed to several of the groups delivers
  /// one copy per subscribed group and commits at the last of them.
  std::vector<ValueId> multicast_all(const std::vector<GroupId>& groups,
                                     const Payload& payload);

  /// Joins `sub.group` at runtime (ring-handler attach). For learner
  /// subscriptions the group's decision stream enters the merge rotation at
  /// the next merge-round boundary, expecting `start_instance` first — pass
  /// a checkpoint-tuple entry when bootstrapping mid-stream. Deterministic
  /// across a partition iff every peer calls it at the same point of the
  /// merged sequence (e.g. while executing an ordered control command). The
  /// change is persisted to stable storage and survives crashes. Ring
  /// *membership* (registry order) is managed separately by the deployment
  /// driver via Registry::add_ring_member.
  void attach_ring(const RingSub& sub, InstanceId start_instance = 0);

  /// Leaves `group`: the handler detaches (stops participating in the
  /// ring), a learner stream retires from the merge at the next round
  /// boundary, and the change is persisted to stable storage.
  void detach_ring(GroupId group);

  /// The coordination service this node watches.
  coord::Registry& registry() { return *registry_; }
  /// The node's effective (crash-surviving, copyable) configuration.
  const NodeConfig& config() const { return config_; }
  /// This node's handler for `group`, or null if it has not joined (or has
  /// left) the ring.
  ringpaxos::RingHandler* handler(GroupId group);
  /// The deterministic merger, or null if the node never subscribed to any
  /// group.
  DeterministicMerger* merger() { return merger_.get(); }
  /// Schedules a demand-driven skip check (see DeterministicMerger::demand)
  /// at the end of the current event batch; at most one is pending. Learner
  /// decisions call it; so does whoever resumes a paused merger.
  void check_demand_soon();
  /// Groups this node delivers, sorted ascending (the merge order basis).
  std::vector<GroupId> subscribed_groups() const;

  /// Demultiplexes ring traffic by ring id, registry view changes to the
  /// matching handler, and everything else to on_app_message.
  void on_message(ProcessId from, const runtime::Message& m) final;

 protected:
  /// Non-ring messages (client requests, recovery protocol, service
  /// traffic). Default: drop.
  virtual void on_app_message(ProcessId from, const runtime::Message& m);

  /// Hook invoked by the ring layer when an acceptor log was trimmed past a
  /// gap this learner still needs (the replica must run full recovery).
  virtual void on_trimmed_gap(GroupId group, InstanceId trimmed_to);

  /// Hook invoked when a value this node itself proposed (multicast) is
  /// decided and passes the ring's ordered stream — exactly once per
  /// proposed value, whether or not the node is a learner of the group.
  /// The smr layer returns flow-control admission credits here. Default:
  /// ignore.
  virtual void on_own_value_delivered(GroupId group, const paxos::Value& v);

  /// Hook invoked after `group`'s handler received a registry view (the
  /// smr layer re-derives who answers clients for that ring). Default:
  /// ignore.
  virtual void on_ring_view(GroupId group);

 private:
  void deliver_merged(GroupId group, InstanceId instance,
                      const paxos::Value& v);
  void make_handler(const RingSub& sub);
  /// Asks the ring the merge is stalled on for demand-driven skips (see
  /// DeterministicMerger::demand).
  void check_demand();
  void persist_config();
  void publish_subscriptions();
  InstanceId start_of(GroupId group) const;

  coord::Registry* registry_;
  NodeConfig config_;
  std::map<GroupId, std::unique_ptr<ringpaxos::RingHandler>> handlers_;
  // Detached handlers are kept alive (inert, timers stopped) until the
  // process dies: in-flight epoch-guarded callbacks (acceptor-log writes)
  // may still reference them. Bounded by the number of detach calls.
  std::vector<std::unique_ptr<ringpaxos::RingHandler>> retired_;
  std::unique_ptr<DeterministicMerger> merger_;
  bool demand_check_armed_ = false;  // end-of-batch check_demand pending
  AppDeliverFn app_deliver_;
  DeliveryObserverFn observer_;

  // Exactly-once delivery: a value re-proposed across a coordinator change
  // can be decided in two instances; the duplicate is suppressed here (all
  // learners see identical merged streams, so they suppress identically).
  // Keyed by (group, id): value-id sequences are per ring handler.
  using GroupValueId = std::pair<GroupId, ValueId>;
  struct GroupValueIdHash {
    std::size_t operator()(const GroupValueId& g) const {
      return ValueIdHash()(g.second) * 1099511628211ULL ^
             static_cast<std::size_t>(g.first);
    }
  };
  std::unordered_set<GroupValueId, GroupValueIdHash> delivered_ids_;
  std::deque<GroupValueId> delivered_order_;
};

}  // namespace mrp::multiring
