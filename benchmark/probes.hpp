// The benchmark's single point of contact with the program's counters.
//
// Every read of ThreadCluster::transport_stats_all(), RingHandler::
// flow_stats(), ReplicaNode::admission_stats() and the smr::ClientNode
// counters goes through this file. When those accessors are replaced by a
// metrics registry, this is the one file to edit: the rest of the
// benchmark only sees the plain structs below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "coord/registry.hpp"
#include "runtime/thread_runtime.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace bench {

using mrp::GroupId;
using mrp::InstanceId;
using mrp::ProcessId;

/// Ring-layer and smr-layer counters of one replica.
struct ReplicaCounters {
  std::uint64_t executed = 0;            ///< commands executed
  std::uint64_t merged_values = 0;       ///< app-visible merged deliveries
  std::uint64_t skipped_instances = 0;   ///< instances consumed by skips
  std::map<GroupId, InstanceId> next_delivery;  ///< per ring
  std::uint64_t inflight_hwm = 0;        ///< max over its rings
  std::uint64_t pending_hwm = 0;
  std::uint64_t ring_shed = 0;           ///< coordinator pending overflow
  std::uint64_t busy_received = 0;       ///< MsgBusy to own proposals
  std::uint64_t admission_hwm = 0;       ///< max commands_hwm over groups
  std::uint64_t admission_shed = 0;      ///< MsgClientBusy pushbacks sent
};

/// Counters of the closed-loop client.
struct ClientCounters {
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t busy_pushbacks = 0;
  std::uint32_t outstanding = 0;
};

/// One snapshot of every counter the benchmark reads.
struct CounterSnapshot {
  mrp::runtime::TransportStats net;      ///< summed over local processes
  std::map<ProcessId, ReplicaCounters> replicas;
};

/// Reads one replica's counters; call on its loop thread.
inline ReplicaCounters read_replica(mrp::smr::ReplicaNode& r,
                                    const std::vector<GroupId>& groups) {
  ReplicaCounters c;
  c.executed = r.executed();
  if (auto* m = r.merger()) {
    c.merged_values = m->delivered();
    c.skipped_instances = m->skipped_instances();
  }
  for (GroupId g : groups) {
    auto* h = r.handler(g);
    if (h == nullptr) continue;
    c.next_delivery[g] = h->next_delivery();
    const auto fs = h->flow_stats();
    c.inflight_hwm = std::max<std::uint64_t>(c.inflight_hwm, fs.inflight_hwm);
    c.pending_hwm = std::max<std::uint64_t>(c.pending_hwm, fs.pending_hwm);
    c.ring_shed += fs.shed;
    c.busy_received += fs.busy_received;
    const auto as = r.admission_stats(g);
    c.admission_hwm = std::max<std::uint64_t>(c.admission_hwm, as.commands_hwm);
    c.admission_shed += as.shed;
  }
  return c;
}

/// Snapshot across the cluster. `replicas` must all be alive (a call into
/// a killed process would wait for a loop that no longer runs).
inline CounterSnapshot read_counters(mrp::runtime::ThreadCluster& cluster,
                                     const std::vector<ProcessId>& replicas,
                                     const std::vector<GroupId>& groups) {
  CounterSnapshot s;
  s.net = cluster.transport_stats_all();
  for (ProcessId p : replicas) {
    cluster.call(p, [&](mrp::runtime::Node* n) {
      s.replicas[p] =
          read_replica(dynamic_cast<mrp::smr::ReplicaNode&>(*n), groups);
    });
  }
  return s;
}

/// Reads the closed-loop client's counters; call on its loop thread.
inline ClientCounters read_client(const mrp::smr::ClientNode& c) {
  ClientCounters out;
  out.completed = c.completed();
  out.retries = c.retries();
  out.busy_pushbacks = c.busy_pushbacks();
  out.outstanding = c.outstanding();
  return out;
}

/// Completed automatic heals (acceptor replacements) across all rings.
inline std::uint64_t heal_count(const mrp::coord::Registry& registry) {
  return registry.heal_count();
}

/// Counter difference b - a for the monotone transport counters (the
/// pending-bytes high-water mark is kept as b's value).
inline mrp::runtime::TransportStats net_delta(
    const mrp::runtime::TransportStats& a,
    const mrp::runtime::TransportStats& b) {
  mrp::runtime::TransportStats d;
  d.frames_sent = b.frames_sent - a.frames_sent;
  d.frames_dropped = b.frames_dropped - a.frames_dropped;
  d.frames_received = b.frames_received - a.frames_received;
  d.bodies_encoded = b.bodies_encoded - a.bodies_encoded;
  d.flushes = b.flushes - a.flushes;
  d.flushed_bytes = b.flushed_bytes - a.flushed_bytes;
  d.flushed_frames = b.flushed_frames - a.flushed_frames;
  d.epoll_waits = b.epoll_waits - a.epoll_waits;
  d.syscalls = b.syscalls - a.syscalls;
  d.wakes_requested = b.wakes_requested - a.wakes_requested;
  d.wakes_written = b.wakes_written - a.wakes_written;
  d.pending_bytes_hwm = b.pending_bytes_hwm;
  return d;
}

}  // namespace bench
