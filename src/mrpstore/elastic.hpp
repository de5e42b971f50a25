// Online scale-out for MRP-Store (message kinds 630-639).
//
// split_partition carves a key sub-range out of a running partition into a
// brand-new partition served by a new ring, while the store keeps serving
// traffic. The cutover is driven by an *ordered* kSplit control command
// multicast to every partition ring, so every replica adopts the successor
// schema at the same point of its merged delivery sequence — the property
// that keeps routing validation and the extracted handoff deterministic.
//
// Protocol (see ARCHITECTURE.md "Online scale-out" for the full diagram):
//   1. driver: create the new ring, add its replicas to the global ring's
//      member order (never as acceptors — the quorum basis is fixed), spawn
//      the StoreReplicaNodes in await-handoff mode, publish schema v+1 to
//      the registry,
//   2. driver: multicast kSplit(schema v+1) to every partition ring through
//      a retrying admin client,
//   3. source replicas (ordered, deterministic): adopt v+1, extract the
//      moving entries into a handoff piece, stamp it with the merger tuple,
//      start answering kStaleRouting for keys they shed, push the piece to
//      the new replicas (and answer pulls forever after — the piece is part
//      of replicated state, so it survives crashes and replays),
//   4. new replicas: pause the merger from birth, collect one piece per
//      source group (push, with pull retries against drops), install the
//      union, raise delivery floors to the piece tuples' maxima, resume —
//      the join lands exactly on a merge-round boundary, so all new
//      replicas deliver the identical merged sequence from instance one,
//   5. clients: a kStaleRouting reply triggers StoreClient::reroute_fn —
//      refresh the versioned schema from the registry, re-route, retry.
#pragma once

#include <map>
#include <vector>

#include "mrpstore/store.hpp"

namespace mrp::mrpstore {

constexpr int kMsgHandoffState = 630;
constexpr int kMsgHandoffPull = 631;

/// Source replica -> new replica: one partition's state-transfer piece.
/// Wire size includes the entries, so the transfer consumes simulated
/// bandwidth like a real snapshot copy.
struct MsgHandoffState final : runtime::Message {
  GroupId source = -1;             ///< partition group the piece came from
  std::uint64_t version = 0;       ///< schema version of the split
  Bytes piece;                     ///< KvStateMachine handoff encoding
  storage::CheckpointTuple tuple;  ///< source's merge position at the split
  int kind() const override { return kMsgHandoffState; }
  std::size_t wire_size() const override {
    return 32 + piece.size() + tuple.size() * 16;
  }
};

/// New replica -> source replica: re-request a (dropped) handoff piece.
struct MsgHandoffPull final : runtime::Message {
  GroupId source = -1;        ///< which partition's piece is being pulled
  std::uint64_t version = 0;  ///< schema version the puller expects
  int kind() const override { return kMsgHandoffPull; }
  std::size_t wire_size() const override { return 20; }
};

/// Bootstrap configuration of a scale-out replica; copyable so the node
/// factory re-creates the node identically after a crash.
struct ElasticOptions {
  /// True for replicas of a freshly split-off partition: delivery stays
  /// paused until one handoff piece per source group is installed.
  bool await_handoff = false;
  /// Schema version the awaited handoff belongs to.
  std::uint64_t handoff_version = 0;
  /// Source partition group -> its replicas (pull targets).
  std::map<GroupId, std::vector<ProcessId>> handoff_sources;
  /// Re-request interval for missing pieces.
  TimeNs pull_retry = 500 * kMillisecond;
};

/// MRP-Store replica: an smr::ReplicaNode that speaks the split protocol —
/// it stamps and pushes handoff pieces when a kSplit executes, answers
/// pulls, and (in await-handoff mode) bootstraps a new partition from the
/// pieces before delivering anything.
class StoreReplicaNode : public smr::ReplicaNode {
 public:
  StoreReplicaNode(runtime::Runtime& rt, coord::Registry* registry,
                   multiring::NodeConfig config,
                   smr::StateMachineFactory factory,
                   smr::ReplicaOptions options, ElasticOptions elastic);

  void on_start() override;

  /// True while this replica still awaits handoff pieces.
  bool bootstrapping() const { return bootstrapping_; }
  /// Handoff pieces collected so far (bootstrap diagnostics).
  std::size_t handoff_pieces() const { return pieces_.size(); }

 protected:
  Bytes apply_command(GroupId group, const smr::Command& c) override;
  void on_app_message(ProcessId from, const runtime::Message& m) override;

 private:
  struct Piece {
    Bytes state;
    storage::CheckpointTuple tuple;
  };

  KvStateMachine& kv();
  void push_handoff(std::uint64_t version);
  void pull_tick();
  void maybe_install();

  ElasticOptions elastic_;
  bool bootstrapping_ = false;
  std::map<GroupId, Piece> pieces_;  // first piece per source wins
  std::size_t pull_cursor_ = 0;
};

/// One online split: which partition to cut, where, and what serves the new
/// half.
struct SplitSpec {
  GroupId source_group = -1;   ///< partition group to split (range schema)
  std::string split_key;       ///< keys >= split_key move (within source)
  GroupId new_group = -1;      ///< ring id for the new partition
  std::vector<ProcessId> new_replicas;  ///< pids to spawn (must be fresh)
  ringpaxos::RingParams ring_params;    ///< new partition's ring
  ringpaxos::RingParams global_params;  ///< new replicas' global-ring handler
  smr::ReplicaOptions replica_options;
  std::uint32_t merge_m = 1;
  TimeNs pull_retry = 500 * kMillisecond;
  /// Pid for the one-shot admin client that multicasts the kSplit command
  /// (must be unused; use distinct pids for successive splits).
  ProcessId admin_pid = 899;
};

/// Splits `spec.source_group` at `spec.split_key` into a new partition
/// while the store serves traffic: creates the ring, spawns the replicas,
/// publishes the successor schema, and multicasts the ordered kSplit
/// cutover command. Requires a RangePartitioner schema (hash schemas cannot
/// shed a contiguous sub-range). Updates `dep`'s routing in place and
/// returns the new schema version.
std::uint64_t split_partition(runtime::Cluster& cluster,
                              coord::Registry& registry, StoreDeployment& dep,
                              const SplitSpec& spec);

}  // namespace mrp::mrpstore
