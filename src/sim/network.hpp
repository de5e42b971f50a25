// Simulated network: point-to-point reliable FIFO channels (TCP-like) with
// per-link one-way latency and bandwidth. Links can be described three ways,
// in priority order: an explicit per-pair override, a site-to-site latency
// matrix (model of datacenters/regions), or the default link.
//
// Delivery to a crashed process is dropped at delivery time; pairs of
// processes can additionally be partitioned (messages silently dropped) to
// exercise fault-handling paths.
//
// Fault injection (src/fault/ builds on these primitives):
//   * set_partitioned(a, b)  — cut one link, both directions,
//   * set_isolated(p)        — cut every data-plane link of one process,
//   * set_fault(NetFault)    — probabilistic drop / duplicate / extra-delay
//                              chaos on all data-plane traffic.
// All chaos randomness draws from the simulator's seeded Rng, so a fault
// sequence is reproducible bit-for-bit for a fixed (topology, workload,
// seed) triple. Control-plane messages from oracle senders (negative
// ProcessIds — the coordination registry standing in for the paper's
// reliable Zookeeper ensemble) bypass isolation and chaos, matching the
// paper's assumption that coordination is reliable; explicit pairwise
// partitions still apply to everything.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "runtime/message.hpp"
#include "sim/simulator.hpp"

namespace mrp::sim {

/// Parameters of one directed link.
struct LinkParams {
  TimeNs latency = 50 * kMicrosecond;  // one-way propagation delay
  double bandwidth_bps = 10e9;         // link capacity in bits/sec
};

/// Probabilistic per-message fault model applied to data-plane traffic while
/// installed (Network::set_fault). Drops and duplicates model a lossy
/// transport under the reliable channel (forcing the retry/retransmission
/// paths); extra delay is added *after* the per-pair FIFO point, so a
/// delayed message can be overtaken by a later one — reordering.
struct NetFault {
  double drop_p = 0.0;       ///< P(message silently dropped).
  double dup_p = 0.0;        ///< P(message delivered a second time).
  TimeNs extra_delay_max = 0;  ///< Extra one-way delay, uniform in [0, max].

  bool active() const {
    return drop_p > 0 || dup_p > 0 || extra_delay_max > 0;
  }
};

class Network {
 public:
  /// Delivery callback invoked when a message arrives at its destination.
  using DeliverFn = std::function<void(ProcessId from, ProcessId to,
                                       runtime::MessagePtr msg)>;

  Network(Simulator& sim, DeliverFn deliver);

  /// Link parameters used when no override or site model matches.
  void set_default_link(LinkParams p) { default_link_ = p; }

  /// Symmetric per-pair override.
  void set_link(ProcessId a, ProcessId b, LinkParams p);

  /// Site model: assign processes to sites and give one-way latencies
  /// between sites (intra-site pairs use the site's local latency).
  void set_site(ProcessId p, int site);
  /// One-way latency between two distinct sites.
  void set_site_latency(int s1, int s2, TimeNs one_way_latency);
  /// One-way latency between two processes at the same site.
  void set_site_local_latency(int site, TimeNs one_way_latency);
  /// Bandwidth used for all site-model links.
  void set_site_bandwidth(double bps) { site_bandwidth_bps_ = bps; }
  /// Site of `p`, or -1 if unassigned.
  int site_of(ProcessId p) const;

  /// Sends msg; it will be delivered (via the DeliverFn) after the link's
  /// transmission + propagation delay, FIFO per (from, to) pair.
  void send(ProcessId from, ProcessId to, runtime::MessagePtr msg);

  /// Drops all traffic between a and b (both directions) while active.
  void set_partitioned(ProcessId a, ProcessId b, bool partitioned);

  // --- fault injection ---

  /// Cuts (or heals) every data-plane link of `p`: all traffic to or from
  /// the process is silently dropped while isolated. Control-plane messages
  /// from oracle senders (negative ids) still arrive — see header comment.
  void set_isolated(ProcessId p, bool isolated);
  /// True while `p` is isolated via set_isolated.
  bool is_isolated(ProcessId p) const { return isolated_.count(p) > 0; }

  /// Installs the probabilistic chaos model on all data-plane traffic.
  /// Replaces any previous model; NetFault{} (all zeros) turns chaos off.
  void set_fault(NetFault f) { fault_ = f; }
  /// Removes the chaos model (equivalent to set_fault({})).
  void clear_fault() { fault_ = NetFault{}; }
  /// The currently installed chaos model.
  const NetFault& fault() const { return fault_; }

  // --- statistics ---

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// Messages dropped by injected faults (chaos drops + isolation cuts;
  /// pairwise partitions are not counted here, matching seed behaviour).
  std::uint64_t faults_dropped() const { return faults_dropped_; }
  /// Messages duplicated by the chaos model.
  std::uint64_t faults_duplicated() const { return faults_duplicated_; }
  /// Messages given extra (possibly reordering) delay by the chaos model.
  std::uint64_t faults_delayed() const { return faults_delayed_; }

 private:
  struct LinkState {
    TimeNs free_at = 0;        // bandwidth serialization point
    TimeNs last_delivery = 0;  // FIFO clamp
  };

  LinkParams resolve(ProcessId from, ProcessId to) const;
  static std::uint64_t pair_key(ProcessId a, ProcessId b) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  Simulator& sim_;
  DeliverFn deliver_;
  LinkParams default_link_;
  std::unordered_map<std::uint64_t, LinkParams> overrides_;  // unordered pair
  std::unordered_map<ProcessId, int> sites_;
  std::map<std::pair<int, int>, TimeNs> site_latency_;
  std::unordered_map<int, TimeNs> site_local_latency_;
  double site_bandwidth_bps_ = 10e9;
  std::unordered_map<std::uint64_t, LinkState> links_;  // ordered pair
  std::unordered_map<std::uint64_t, bool> partitioned_;
  std::unordered_set<ProcessId> isolated_;
  NetFault fault_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t faults_dropped_ = 0;
  std::uint64_t faults_duplicated_ = 0;
  std::uint64_t faults_delayed_ = 0;
};

}  // namespace mrp::sim
