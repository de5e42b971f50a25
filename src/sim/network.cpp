#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace mrp::sim {

Network::Network(Simulator& sim, DeliverFn deliver)
    : sim_(sim), deliver_(std::move(deliver)) {
  MRP_CHECK(deliver_ != nullptr);
}

void Network::set_link(ProcessId a, ProcessId b, LinkParams p) {
  overrides_[pair_key(std::min(a, b), std::max(a, b))] = p;
}

void Network::set_site(ProcessId p, int site) { sites_[p] = site; }

void Network::set_site_latency(int s1, int s2, TimeNs one_way_latency) {
  site_latency_[{std::min(s1, s2), std::max(s1, s2)}] = one_way_latency;
}

void Network::set_site_local_latency(int site, TimeNs one_way_latency) {
  site_local_latency_[site] = one_way_latency;
}

int Network::site_of(ProcessId p) const {
  auto it = sites_.find(p);
  return it == sites_.end() ? -1 : it->second;
}

LinkParams Network::resolve(ProcessId from, ProcessId to) const {
  auto ov = overrides_.find(pair_key(std::min(from, to), std::max(from, to)));
  if (ov != overrides_.end()) return ov->second;

  auto sf = sites_.find(from);
  auto st = sites_.find(to);
  if (sf != sites_.end() && st != sites_.end()) {
    LinkParams p = default_link_;
    p.bandwidth_bps = site_bandwidth_bps_;
    if (sf->second == st->second) {
      auto loc = site_local_latency_.find(sf->second);
      if (loc != site_local_latency_.end()) p.latency = loc->second;
      return p;
    }
    auto lat = site_latency_.find({std::min(sf->second, st->second),
                                   std::max(sf->second, st->second)});
    MRP_CHECK_MSG(lat != site_latency_.end(),
                  "no latency configured between sites");
    p.latency = lat->second;
    return p;
  }
  return default_link_;
}

void Network::send(ProcessId from, ProcessId to, runtime::MessagePtr msg) {
  MRP_CHECK(msg != nullptr);
  auto part =
      partitioned_.find(pair_key(std::min(from, to), std::max(from, to)));
  if (part != partitioned_.end() && part->second) return;  // dropped

  // Oracle senders (negative ids, e.g. the registry) model an always-reliable
  // coordination service: isolation and chaos do not apply to them.
  const bool oracle = from < 0;
  if (!oracle && (isolated_.count(from) || isolated_.count(to))) {
    ++faults_dropped_;
    return;
  }

  const LinkParams link = resolve(from, to);
  LinkState& state = links_[pair_key(from, to)];

  const std::size_t size = msg->wire_size();
  const TimeNs tx = static_cast<TimeNs>(static_cast<double>(size) * 8.0 /
                                        link.bandwidth_bps * 1e9);
  const TimeNs depart = std::max(sim_.now(), state.free_at);
  state.free_at = depart + tx;
  // FIFO clamp keeps per-pair ordering even if parameters change mid-run.
  TimeNs arrive = std::max(depart + tx + link.latency, state.last_delivery);
  state.last_delivery = arrive;

  ++messages_sent_;
  bytes_sent_ += size;

  if (!oracle && fault_.active()) {
    // The FIFO clamp and bandwidth point were already advanced above: a
    // chaotic message still occupied the wire, it just never (or twice, or
    // late) reaches the receiver.
    if (fault_.drop_p > 0 && sim_.rng().next_double() < fault_.drop_p) {
      ++faults_dropped_;
      return;
    }
    if (fault_.extra_delay_max > 0) {
      const TimeNs extra = sim_.rng().next_range(0, fault_.extra_delay_max);
      if (extra > 0) {
        ++faults_delayed_;
        arrive += extra;  // past the FIFO point: later sends may overtake
      }
    }
    if (fault_.dup_p > 0 && sim_.rng().next_double() < fault_.dup_p) {
      ++faults_duplicated_;
      TimeNs dup_arrive = arrive;
      if (fault_.extra_delay_max > 0) {
        dup_arrive += sim_.rng().next_range(0, fault_.extra_delay_max);
      }
      sim_.schedule_at(dup_arrive, [this, from, to, m = msg]() mutable {
        deliver_(from, to, std::move(m));
      });
    }
  }

  sim_.schedule_at(arrive, [this, from, to, m = std::move(msg)]() mutable {
    deliver_(from, to, std::move(m));
  });
}

void Network::set_partitioned(ProcessId a, ProcessId b, bool partitioned) {
  partitioned_[pair_key(std::min(a, b), std::max(a, b))] = partitioned;
}

void Network::set_isolated(ProcessId p, bool isolated) {
  if (isolated) {
    isolated_.insert(p);
  } else {
    isolated_.erase(p);
  }
}

}  // namespace mrp::sim
