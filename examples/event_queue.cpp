// Example: a replicated event queue on dLog.
//
// Producers append events to per-topic logs; a cross-topic "transaction
// marker" is multi-appended atomically to all topics; consumers read the
// logs back and verify that (a) every topic's positions are dense, and
// (b) the marker appears at a consistent cut: no consumer observes topic A
// past the marker while topic B is still before it at the same read round.
//
//   ./example_event_queue
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "coord/registry.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

using namespace mrp;

int main() {
  sim::Env env(23);
  env.net().set_default_link({from_micros(50), 10e9});
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender));

  dlog::DLogOptions opts;
  opts.num_logs = 3;  // three topics
  opts.servers = 3;
  opts.ring_params.lambda = 3000;
  opts.ring_params.skip_interval = 5 * kMillisecond;
  opts.common_params = opts.ring_params;
  auto dep = build_dlog(env, registry, opts);
  dlog::DLogClient queue(dep);

  // Producers: 6 workers appending to their topics; every 20th completion
  // of worker 0 issues an atomic cross-topic marker.
  int produced = 0;
  int worker0_ops = 0;
  env.spawn<smr::ClientNode>(
      900, smr::ClientNode::Options{6, 2 * kSecond, 0},
      smr::ClientNode::NextFn(
          [&queue, &produced, &worker0_ops](std::uint32_t w)
              -> std::optional<smr::Request> {
            if (produced >= 600) return std::nullopt;
            ++produced;
            if (w == 0 && ++worker0_ops % 10 == 0) {
              return queue.multi_append({0, 1, 2}, to_bytes("MARKER"));
            }
            return queue.append(w % 3,
                                to_bytes("event-" + std::to_string(produced)));
          }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(10));

  // Verify on the replicas directly: positions dense, contents identical,
  // and markers aligned (every marker instance lands in all three topics).
  auto& sm0 = dynamic_cast<dlog::LogStateMachine&>(
      env.process_as<smr::ReplicaNode>(dep.servers[0])->state_machine());
  auto& sm1 = dynamic_cast<dlog::LogStateMachine&>(
      env.process_as<smr::ReplicaNode>(dep.servers[1])->state_machine());

  bool ok = sm0.digest() == sm1.digest();
  std::vector<int> markers_per_topic(3, 0);
  std::size_t total_events = 0;
  for (dlog::LogId topic = 0; topic < 3; ++topic) {
    const dlog::Position end = sm0.next_position(topic);
    total_events += end;
    for (dlog::Position p = 0; p < end; ++p) {
      auto entry = sm0.entry(topic, p);
      if (!entry) {
        ok = false;  // dense positions: every slot must hold an entry
        continue;
      }
      if (to_string(*entry) == "MARKER") ++markers_per_topic[topic];
    }
  }
  if (markers_per_topic[0] != markers_per_topic[1] ||
      markers_per_topic[1] != markers_per_topic[2]) {
    ok = false;  // multi-append atomicity: same marker count everywhere
  }

  std::printf("event queue: %zu events across 3 topics, %d markers/topic\n",
              total_events, markers_per_topic[0]);
  std::printf("%s\n", ok ? "PASS: dense positions, replicas agree, markers "
                           "atomic"
                         : "FAIL: inconsistency detected");
  return ok ? 0 : 1;
}
