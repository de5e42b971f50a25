// Replica checkpoint storage (Section 5.2).
//
// A Multi-Ring Paxos checkpoint is identified by a *tuple* of consensus
// instances, one entry per subscribed group: entry next[x] is the lowest
// instance of group x whose effect is NOT yet reflected in the state.
// Because replicas deliver groups round-robin in group-id order and
// checkpoints are taken at merge-round boundaries, tuples of replicas in the
// same partition are totally ordered (Predicate 1), which the recovery
// protocol relies on.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "runtime/runtime.hpp"

namespace mrp::storage {

/// Checkpoint identifier: per-group next-undelivered instance.
using CheckpointTuple = std::map<GroupId, InstanceId>;

/// tuple_leq(a, b): every entry of a <= the matching entry of b.
/// Tuples of same-partition replicas have identical key sets.
bool tuple_leq(const CheckpointTuple& a, const CheckpointTuple& b);

struct Checkpoint {
  CheckpointTuple next;  // k_p in the paper (exclusive upper bounds)
  Bytes state;           // serialized application state
  std::uint64_t sequence = 0;  // per-replica checkpoint counter

  std::size_t wire_size() const { return 16 + next.size() * 16 + state.size(); }
};

class CheckpointStore {
 public:
  /// Binds to the durable slot `checkpoints` of the hosting runtime's
  /// process.
  explicit CheckpointStore(runtime::Runtime& rt, int disk_index = 0);

  /// Persists a checkpoint (synchronous device write — the paper writes
  /// checkpoints synchronously so that trim decisions are safe); `done`
  /// fires when durable. Only the most recent checkpoint is retained.
  void save(Checkpoint cp, runtime::Task done);

  /// Most recent durable checkpoint, if any.
  std::optional<Checkpoint> latest() const;

  std::uint64_t saves() const;

 private:
  struct Durable {
    std::optional<Checkpoint> latest;
    std::uint64_t saves = 0;
  };

  runtime::Runtime& rt_;
  int disk_index_;
  Durable& d_;
};

}  // namespace mrp::storage
