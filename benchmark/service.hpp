// The benchmark's workloads as services: how each deployment is built from
// public constructors, which requests it receives, and how replies and
// final replica state are checked.
//
// The services' own deployment helpers (build_store, build_dlog,
// StoreReplicaNode) only run on the simulator, so each deployment here is
// assembled by hand: registry rings, then one BenchReplica per replica
// process hosting the service's state machine (mrpstore::KvStateMachine or
// dlog::LogStateMachine), with mrpstore::StoreClient and dlog::DLogClient
// building the requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "loadgen.hpp"
#include "multiring/node.hpp"
#include "runtime/thread_runtime.hpp"
#include "smr/replica.hpp"
#include "trace.hpp"

namespace bench {

class Service;

/// smr::ReplicaNode with the benchmark's hooks: times every executed
/// command (by operation class, with the command's (session, seq) so a
/// sampled request's execute span is attributed to it) and stamps merged
/// deliveries. Hooks are installed only on traced runs.
class BenchReplica final : public mrp::smr::ReplicaNode {
 public:
  BenchReplica(mrp::runtime::Runtime& rt, mrp::coord::Registry* registry,
               mrp::multiring::NodeConfig config,
               mrp::smr::StateMachineFactory factory, const Service& service,
               Tracer* tracer, ReplicaTrace* trace);

 protected:
  Bytes apply_command(GroupId group, const mrp::smr::Command& c) override;

 private:
  const Service& service_;
  Tracer* tracer_;  // null on untraced runs
  ReplicaTrace* trace_;
};

class Service : public RequestSource {
 public:
  /// Creates the rings in `registry` and adds every replica process to
  /// `cluster` (before it starts). `tracer` is null on untraced runs.
  virtual void deploy(mrp::runtime::ThreadCluster& cluster,
                      mrp::coord::Registry& registry, Tracer* tracer) = 0;

  const std::vector<ProcessId>& replicas() const { return replicas_; }
  const std::vector<GroupId>& groups() const { return groups_; }
  /// Replica stopped at the end of the open window (kNoProcess = none).
  virtual ProcessId victim() const { return mrp::kNoProcess; }

  /// Operation class of an encoded op: an index into op_class_names().
  virtual int op_class(const Bytes& op) const = 0;
  virtual std::vector<std::string> op_class_names() const = 0;

  /// Digest of one replica's service state (call on its loop thread).
  virtual std::uint64_t digest(mrp::smr::ReplicaNode& r) const = 0;

  /// Service-specific checks once the alive replicas have converged.
  /// `complete` is true when every request issued was answered, so the
  /// state must account for exactly the acknowledged operations.
  virtual bool check_final(mrp::runtime::ThreadCluster& cluster,
                           const std::vector<ProcessId>& alive, bool complete,
                           std::string* why);

 protected:
  void add_replica(mrp::runtime::ThreadCluster& cluster,
                   mrp::coord::Registry& registry, ProcessId pid,
                   const mrp::multiring::NodeConfig& config,
                   mrp::smr::StateMachineFactory factory, Tracer* tracer);

  std::vector<ProcessId> replicas_;
  std::vector<GroupId> groups_;
};

/// Workload names, in the order the benchmark runs them.
const std::vector<std::string>& workload_names();
/// A fresh service for one deployment of `workload` (null if unknown).
std::unique_ptr<Service> make_service(const std::string& workload);
/// Open-loop arrival rate of `workload`, in requests per second.
double open_rate(const std::string& workload);

}  // namespace bench
