// MRP-Store: a strongly consistent partitioned key-value store on atomic
// multicast (Section 6.1, operations of Table 1), with online scale-out.
//
// Keys are strings, values byte arrays. Each partition is replicated with
// state-machine replication over one multicast group; single-key operations
// are multicast to the key's partition, scans to a global group all replicas
// subscribe to (or, in the "independent rings" configuration, to every
// partition group separately — cheaper but only per-partition ordered).
//
// The partition layout is dynamic: split_partition (elastic.hpp) carves a
// key sub-range out of a running partition into a freshly spawned one. The
// cutover rides the ordered command stream — a kSplit control operation is
// multicast to every partition ring, so each replica adopts the successor
// schema, extracts the moving keys, and starts rejecting stale routes at
// exactly the same point of its delivery sequence (determinism). Clients
// recover from kStaleRouting replies by re-reading the versioned schema
// from the registry and re-routing (StoreClient::reroute_fn).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "common/types.hpp"
#include "coord/registry.hpp"
#include "mrpstore/partitioning.hpp"
#include "runtime/cluster.hpp"
#include "smr/replica.hpp"
#include "smr/state_machine.hpp"
#include "storage/checkpoint_store.hpp"

namespace mrp::mrpstore {

// --- operation encoding (Table 1 + the split control operation) ---

enum class OpType : std::uint8_t {
  kRead = 1,
  kUpdate = 2,
  kInsert = 3,
  kDelete = 4,
  kScan = 5,
  /// Ordered control operation: adopt the successor partition schema and
  /// extract the keys that move to the new partition (state transfer).
  kSplit = 6,
  // Cross-partition atomic operations: one command multicast to every
  // owning partition's ring (smr multi-group addressing); each replica
  // applies the sub-operations on keys its delivery group owns, and the
  // client assembles atomicity by awaiting one reply per addressed
  // partition. All three stamp the client's routing version so replicas on
  // a newer ordered schema reject deterministically (kStaleRouting).
  kMultiGet = 7,
  kMultiPut = 8,
  /// Balance transfer between two (decimal-string) counters: debit
  /// `key` (from), credit `key_hi` (to) by `amount`. Unconditional
  /// (overdraft allowed, missing accounts start at 0), so the two halves
  /// are independently deterministic and conservation of the total balance
  /// is the atomicity invariant.
  kTransfer = 9,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kExists = 2,
  /// The receiving partition no longer owns the key under its current
  /// schema: the client must refresh the schema and re-route.
  kStaleRouting = 3,
};

struct Op {
  OpType type = OpType::kRead;
  std::string key;        // read/update/insert/delete; scan: lo; transfer: from
  std::string key_hi;     // scan: exclusive upper bound ("" = open); transfer: to
  Bytes value;            // update/insert
  std::uint32_t limit = 0;  // scan: max entries per partition (0 = all)
  /// Scan / multi-key ops: the schema version the client routed with
  /// (0 = unversioned). A replica whose ordered schema is newer answers
  /// kStaleRouting, so a stale client cannot silently miss a split-off key
  /// range (or apply half of a cross-partition write under stale routing).
  std::uint64_t schema_version = 0;
  std::string schema;       // split: successor PartitionSchema, encoded
  GroupId split_group = -1;  // split: the group gaining the moved keys
  std::vector<std::string> keys;                       // multi-get
  std::vector<std::pair<std::string, Bytes>> entries;  // multi-put
  std::int64_t amount = 0;                             // transfer
};

Bytes encode_op(const Op& op);
Op decode_op(const Bytes& data);

struct Result {
  Status status = Status::kOk;
  Bytes value;                                          // read
  std::vector<std::pair<std::string, Bytes>> entries;   // scan
};

Bytes encode_result(const Result& r);
Result decode_result(const Bytes& data);

// --- replica state machine ---

/// In-memory ordered tree per replica (like the paper's prototype), plus
/// the replica's ordered view of the partition schema. The schema, the
/// outgoing handoff buffer and the handoff merge position are part of the
/// replicated state (serialized into snapshots): a recovered replica must
/// validate routes and serve state transfer exactly like its peers.
class KvStateMachine final : public smr::StateMachine {
 public:
  Bytes apply(GroupId group, const Bytes& op) override;
  Bytes snapshot() const override;
  void restore(const Bytes& snapshot) override;

  std::size_t size() const { return data_.size(); }
  std::optional<Bytes> get(const std::string& key) const;
  /// Direct load used to pre-populate benchmarks (bypasses consensus).
  void preload(std::string key, Bytes value);
  /// Order-sensitive digest of the full contents (replica-equality checks);
  /// includes the schema version so replicas must also agree on routing.
  std::uint64_t digest() const;

  /// Installs the replica's partition schema (deployment seeds version 1 at
  /// construction; later versions arrive through ordered kSplit commands).
  void set_schema(PartitionSchema schema);
  /// The replica's current ordered schema (version 0 = none installed).
  const PartitionSchema& schema() const { return schema_; }

  // --- state transfer (split protocol) ---

  /// One split's outgoing state transfer, retained per schema version: a
  /// still-bootstrapping partition from an earlier split must be able to
  /// pull its piece even after later splits executed (splits are rare
  /// admin operations, so retention is cheap).
  struct HandoffPiece {
    GroupId target = -1;             ///< group gaining the moved keys
    GroupId source = -1;             ///< group the piece was extracted from
    Bytes state;                     ///< schema + extracted entries, encoded
    storage::CheckpointTuple tuple;  ///< merge position at the split
  };

  /// Version of the most recent split executed here (0 = none).
  std::uint64_t handoff_version() const {
    return handoffs_.empty() ? 0 : handoffs_.rbegin()->first;
  }
  /// The handoff piece of split `version`, or null if that split has not
  /// executed here.
  const HandoffPiece* handoff(std::uint64_t version) const;
  /// Stamps the merge position of split `version` (set by the replica
  /// node; deterministic across peers because the split is ordered).
  void set_handoff_tuple(std::uint64_t version, storage::CheckpointTuple t);
  /// Installs a handoff piece received from a source partition: adopts the
  /// piece's schema if newer and inserts the transferred entries.
  void install_handoff(const Bytes& piece);

 private:
  Bytes apply_split(GroupId group, std::string_view encoded_schema,
                    GroupId split_group);

  // Transparent comparator: lookups take the decoded key as a
  // std::string_view straight out of the wire buffer (no allocation).
  std::map<std::string, Bytes, std::less<>> data_;
  PartitionSchema schema_;
  std::map<std::uint64_t, HandoffPiece> handoffs_;  // by schema version
};

// --- deployment ---

struct StoreOptions {
  std::size_t partitions = 3;
  std::size_t replicas_per_partition = 3;
  bool global_ring = true;  // false = the paper's "independent rings" config
  std::uint32_t merge_m = 1;
  ringpaxos::RingParams ring_params;    // per-partition rings
  ringpaxos::RingParams global_params;  // the global ring
  smr::ReplicaOptions replica_options;
  std::string partitioner;  // encoded; default: hash over `partitions`
  ProcessId first_pid = 100;
  GroupId first_group = 0;
};

/// Everything a client or test needs to talk to a deployed store. A split
/// updates the driver-side copy in place; an independently constructed
/// client copy catches up via refresh() (normally triggered by a
/// kStaleRouting reply).
struct StoreDeployment {
  std::vector<GroupId> partition_groups;          // group of partition i
  GroupId global_group = -1;                      // -1 if independent rings
  std::vector<std::vector<ProcessId>> replicas;   // replicas of partition i
  std::shared_ptr<Partitioner> partitioner;
  std::uint64_t schema_version = 0;               // of the routing state above

  std::vector<ProcessId> all_replicas() const;

  /// The full versioned schema equivalent of this deployment's routing.
  PartitionSchema schema() const;

  /// Re-reads the store schema from the registry and adopts it if newer
  /// (the client-side half of the stale-routing retry loop).
  void refresh(const coord::Registry& registry);

  /// Order-sensitive digest of the replica's full KV state — the
  /// convergence probe used by chaos scenarios (fault::watch_store) and
  /// tests: replicas of one partition must agree once the run drains.
  /// `pid` must be an alive replica of this deployment.
  std::uint64_t replica_digest(runtime::Cluster& cluster, ProcessId pid) const;

  /// Value of `key` at one replica, bypassing consensus (durability probes:
  /// an acked write must be readable at every alive replica).
  std::optional<Bytes> replica_get(runtime::Cluster& cluster, ProcessId pid,
                                   const std::string& key) const;
};

/// Creates rings and replica processes for a full MRP-Store deployment and
/// publishes schema version 1 to the registry. Replica r of partition p is
/// process first_pid + p * replicas_per_partition + r.
StoreDeployment build_store(runtime::Cluster& cluster,
                            coord::Registry& registry,
                            const StoreOptions& options);

}  // namespace mrp::mrpstore
