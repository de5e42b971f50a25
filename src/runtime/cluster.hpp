// runtime::Cluster — the one way to build a deployment of runtime::Nodes.
//
// Every node is constructed as T(Runtime&, args...) by a NodeFactory, on
// either backend: sim::Env (deterministic simulation) and ThreadCluster
// (one loop thread per process over loopback TCP) both implement Cluster,
// so the service builders (mrpstore::build_store, dlog::build_dlog, ...)
// and their state probes are written once and run on both.
#pragma once

#include <functional>
#include <memory>
#include <tuple>
#include <utility>

#include "common/types.hpp"
#include "runtime/node.hpp"

namespace mrp::runtime {

/// Builds a process's node against the Runtime its backend hosts it on. A
/// backend may run it again (the sim re-runs it when a process recovers).
using NodeFactory = std::function<std::unique_ptr<Node>(Runtime&)>;

/// A NodeFactory constructing T(rt, args...) from stored copies of args, so
/// every run of it builds the node identically.
template <class T, class... Args>
NodeFactory factory_of(Args... args) {
  return [tup = std::make_tuple(std::move(args)...)](Runtime& rt) {
    return std::apply(
        [&rt](const Args&... a) -> std::unique_ptr<Node> {
          return std::make_unique<T>(rt, a...);
        },
        tup);
  };
}

class Cluster {
 public:
  virtual ~Cluster() = default;

  /// Registers process `pid`, hosted by the node `factory` builds. The sim
  /// starts it at once; ThreadCluster starts it at start(), and only
  /// accepts nodes before then.
  virtual void add_node(ProcessId pid, NodeFactory factory) = 0;

  /// Runs fn with pid's node in that node's execution context (inline on
  /// the sim, on the loop thread for ThreadCluster) and returns once it
  /// ran. Aborts if pid is down.
  virtual void call(ProcessId pid, const std::function<void(Node*)>& fn) = 0;
};

}  // namespace mrp::runtime
