#include "mrpstore/elastic.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "smr/client.hpp"

namespace mrp::mrpstore {

StoreReplicaNode::StoreReplicaNode(runtime::Runtime& rt,
                                   coord::Registry* registry,
                                   multiring::NodeConfig config,
                                   smr::StateMachineFactory factory,
                                   smr::ReplicaOptions options,
                                   ElasticOptions elastic)
    : smr::ReplicaNode(rt, registry, std::move(config),
                       std::move(factory), std::move(options)),
      elastic_(std::move(elastic)) {}

KvStateMachine& StoreReplicaNode::kv() {
  return dynamic_cast<KvStateMachine&>(state_machine());
}

void StoreReplicaNode::on_start() {
  // Installs the local checkpoint (if any) and runs peer recovery first: a
  // replica that crashed after completing its bootstrap recovers the
  // installed state (schema version >= the awaited handoff version) and
  // must not wait for pieces again.
  ReplicaNode::on_start();
  if (!elastic_.await_handoff ||
      kv().schema().version >= elastic_.handoff_version) {
    return;
  }
  // Fresh scale-out replica: nothing may be delivered before the state
  // transfer lands — pausing from birth makes the later resume land on a
  // merge-round boundary, identical on every peer.
  bootstrapping_ = true;
  merger()->pause();
  every(elastic_.pull_retry, [this] {
    if (bootstrapping_) pull_tick();
  });
}

Bytes StoreReplicaNode::apply_command(GroupId group, const smr::Command& c) {
  const bool is_split =
      !c.op.empty() && static_cast<OpType>(c.op[0]) == OpType::kSplit;
  if (!is_split) return ReplicaNode::apply_command(group, c);

  const Op op = decode_op(c.op);
  const std::uint64_t version = PartitionSchema::decode(op.schema).version;
  const bool fresh = kv().handoff(version) == nullptr;
  Bytes result = ReplicaNode::apply_command(group, c);
  if (fresh && kv().handoff(version) != nullptr) {
    // Freshly executed (first run or deterministic replay after a
    // recovery): stamp the piece with the merge position. The split is
    // ordered, so every replica of this partition — including one
    // replaying the command from a pre-split checkpoint — computes the
    // identical tuple here.
    kv().set_handoff_tuple(version, merger()->tuple());
  }
  push_handoff(version);
  return result;
}

void StoreReplicaNode::push_handoff(std::uint64_t version) {
  const KvStateMachine::HandoffPiece* piece = kv().handoff(version);
  if (piece == nullptr) return;
  const PartitionSchema& schema = kv().schema();
  const int target = schema.index_of_group(piece->target);
  if (target < 0) return;
  for (ProcessId to : schema.replicas[static_cast<std::size_t>(target)]) {
    auto msg = std::make_shared<MsgHandoffState>();
    msg->source = piece->source;
    msg->version = version;
    msg->piece = piece->state;
    msg->tuple = piece->tuple;
    send(to, msg);
  }
}

void StoreReplicaNode::pull_tick() {
  for (const auto& [source, targets] : elastic_.handoff_sources) {
    if (pieces_.count(source) || targets.empty()) continue;
    auto pull = std::make_shared<MsgHandoffPull>();
    pull->source = source;
    pull->version = elastic_.handoff_version;
    send(targets[pull_cursor_ % targets.size()], pull);
  }
  ++pull_cursor_;  // rotate to another source replica next round
}

void StoreReplicaNode::maybe_install() {
  if (!bootstrapping_ || pieces_.size() < elastic_.handoff_sources.size()) {
    return;
  }
  // All pieces collected: install them in ascending source-group order
  // (identical on every peer), position the merger at the maxima of the
  // piece tuples, and open delivery. Sources stamped their pieces at the
  // (ordered, deterministic) split point, so every new replica computes the
  // same floors and the resumed merge is a round boundary — the join is
  // invisible in the delivery order.
  for (const auto& [source, piece] : pieces_) {
    (void)source;
    kv().install_handoff(piece.state);
  }
  storage::CheckpointTuple floors;
  for (GroupId g : merger()->groups()) floors[g] = 0;
  for (const auto& [source, piece] : pieces_) {
    (void)source;
    for (const auto& [g, inst] : piece.tuple) {
      auto it = floors.find(g);
      if (it != floors.end()) it->second = std::max(it->second, inst);
    }
  }
  merger()->install_tuple(floors);
  for (const auto& [g, inst] : floors) {
    if (auto* h = handler(g)) h->set_delivery_floor(inst);
  }
  bootstrapping_ = false;
  merger()->resume();
  check_demand_soon();
  // Persist the installed state promptly so a crash does not restart the
  // transfer (and so this replica's trim replies stop gating at zero).
  checkpointer().checkpoint_soon();
}

void StoreReplicaNode::on_app_message(ProcessId from, const runtime::Message& m) {
  switch (m.kind()) {
    case kMsgHandoffState: {
      const auto& h = runtime::msg_cast<MsgHandoffState>(m);
      if (!bootstrapping_ || h.version != elastic_.handoff_version) return;
      if (!elastic_.handoff_sources.count(h.source)) return;
      // First piece per source wins; duplicates (chaos, push + pull races)
      // carry identical bytes anyway — sources stamp deterministically.
      pieces_.emplace(h.source, Piece{h.piece, h.tuple});
      maybe_install();
      return;
    }
    case kMsgHandoffPull: {
      const auto& p = runtime::msg_cast<MsgHandoffPull>(m);
      // Pieces are retained per version (and recreated by deterministic
      // replay after recovery), so a slow bootstrap can still pull its
      // split's piece after later splits executed here.
      const KvStateMachine::HandoffPiece* piece = kv().handoff(p.version);
      if (piece == nullptr) return;  // split not executed here yet; retried
      auto reply = std::make_shared<MsgHandoffState>();
      reply->source = piece->source;
      reply->version = p.version;
      reply->piece = piece->state;
      reply->tuple = piece->tuple;
      send(from, reply);
      return;
    }
    default:
      ReplicaNode::on_app_message(from, m);
  }
}

std::uint64_t split_partition(runtime::Cluster& cluster,
                              coord::Registry& registry, StoreDeployment& dep,
                              const SplitSpec& spec) {
  MRP_CHECK_MSG(!spec.new_replicas.empty(), "split needs new replicas");
  MRP_CHECK(spec.new_group >= 0);

  // --- derive the successor schema ---
  auto* range = dynamic_cast<RangePartitioner*>(dep.partitioner.get());
  MRP_CHECK_MSG(range != nullptr,
                "online split requires a RangePartitioner schema");
  const PartitionSchema old_schema = dep.schema();
  const int src = old_schema.index_of_group(spec.source_group);
  MRP_CHECK_MSG(src >= 0, "source group is not a partition group");
  MRP_CHECK_MSG(range->partition_for_key(spec.split_key) == src,
                "split key lies outside the source partition's range");

  std::vector<std::string> splits = range->splits();
  splits.insert(splits.begin() + src, spec.split_key);
  PartitionSchema next = old_schema;
  next.version = dep.schema_version + 1;
  next.partitioner = std::make_shared<RangePartitioner>(std::move(splits));
  next.groups.insert(next.groups.begin() + src + 1, spec.new_group);
  next.replicas.insert(next.replicas.begin() + src + 1, spec.new_replicas);

  // --- ring + processes for the new partition ---
  coord::RingConfig ring;
  ring.ring = spec.new_group;
  ring.order = spec.new_replicas;
  ring.acceptors.insert(spec.new_replicas.begin(), spec.new_replicas.end());
  registry.create_ring(ring);
  if (dep.global_group >= 0) {
    // Join the global ring's circulation as plain members: dynamic members
    // are never acceptors, so the quorum basis stays fixed.
    for (ProcessId pid : spec.new_replicas) {
      registry.add_ring_member(dep.global_group, pid);
    }
  }

  multiring::NodeConfig node_cfg;
  node_cfg.merge_m = spec.merge_m;
  node_cfg.rings.push_back(
      multiring::RingSub{spec.new_group, spec.ring_params, true});
  if (dep.global_group >= 0) {
    node_cfg.rings.push_back(
        multiring::RingSub{dep.global_group, spec.global_params, true});
  }
  smr::ReplicaOptions ro = spec.replica_options;
  // Unique reply tag (old partitions keep their spawn-time tags).
  ro.partition_tag = static_cast<int>(dep.replicas.size());
  ElasticOptions eo;
  eo.await_handoff = true;
  eo.handoff_version = next.version;
  for (std::size_t p = 0; p < dep.partition_groups.size(); ++p) {
    eo.handoff_sources[dep.partition_groups[p]] = dep.replicas[p];
  }
  eo.pull_retry = spec.pull_retry;
  // New replicas are seeded with the *old* schema: they only flip to the
  // successor when the handoff pieces install, which is what arms the
  // await-handoff bootstrap across crashes.
  const std::string old_encoded = old_schema.encode();
  for (ProcessId pid : spec.new_replicas) {
    cluster.add_node(
        pid, runtime::factory_of<StoreReplicaNode>(
                 &registry, node_cfg,
                 smr::StateMachineFactory(
                     [old_encoded](runtime::Runtime&, ProcessId) {
                       auto sm = std::make_unique<KvStateMachine>();
                       sm->set_schema(PartitionSchema::decode(old_encoded));
                       return sm;
                     }),
                 ro, eo));
  }

  // --- publish the successor schema, then the ordered cutover command ---
  registry.publish_schema(kStoreSchemaKey, next.encode());

  Op op;
  op.type = OpType::kSplit;
  op.schema = next.encode();
  op.split_group = spec.new_group;
  smr::Request req;
  req.op = encode_op(op);
  for (std::size_t p = 0; p < dep.partition_groups.size(); ++p) {
    req.sends.push_back(
        smr::Request::Send{dep.partition_groups[p], dep.replicas[p]});
  }
  req.expected_partitions = dep.partition_groups.size();
  // A one-shot retrying admin client carries the command: the split is
  // durable once every source partition has ordered it, and the client's
  // session dedup makes retries harmless.
  auto issued = std::make_shared<bool>(false);
  cluster.add_node(
      spec.admin_pid,
      runtime::factory_of<smr::ClientNode>(
          smr::ClientNode::Options{1, kSecond, 0},
          smr::ClientNode::NextFn(
              [issued, req](std::uint32_t) -> std::optional<smr::Request> {
                if (*issued) return std::nullopt;
                *issued = true;
                return req;
              }),
          smr::ClientNode::DoneFn(nullptr)));

  // --- driver-side routing update ---
  dep.partitioner = next.partitioner;
  dep.partition_groups = next.groups;
  dep.replicas = next.replicas;
  dep.schema_version = next.version;
  return next.version;
}

}  // namespace mrp::mrpstore
