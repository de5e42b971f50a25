// Figure 8 — Impact of recovery on performance.
//
// One ring with three acceptors (asynchronous disk writes) co-hosted with
// three replicas; the store runs at ~75% of its peak load. At t=20 s one
// replica is terminated; it restarts at t=240 s, installs the most recent
// remote checkpoint, and fetches the missing instances from the acceptors.
// Replicas checkpoint periodically (synchronously to disk) and ring
// coordinators trim the acceptor logs. The timeline shows throughput and
// mean latency per 2-second window with event annotations:
//   1 replica terminated   2 replica checkpoint   3 acceptor log trimming
//   4 replica recovery (remote checkpoint install + retransmission)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

constexpr TimeNs kRuntime = 300 * kSecond;
constexpr TimeNs kKillAt = 20 * kSecond;
constexpr TimeNs kRecoverAt = 240 * kSecond;
constexpr TimeNs kWindow = 2 * kSecond;

}  // namespace

int main() {
  sim::Env env(88);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  mrpstore::StoreOptions so;
  so.partitions = 1;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.ring_params.write_mode = storage::WriteMode::Async;
  so.ring_params.lambda = 0;
  so.ring_params.gap_timeout = 100 * kMillisecond;
  so.replica_options.checkpoint.interval = 30 * kSecond;
  so.replica_options.checkpoint.disk_index = 1;  // own device for snapshots
  so.replica_options.trim.interval = 60 * kSecond;
  auto dep = mrpstore::build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) {
    env.set_cpu(r, bench::server_cpu());
    // Log device keeps up with ~10k small appends/s; snapshots go to a
    // separate SSD, like BDB log files vs checkpoint files.
    env.set_disk_params(r, 0, sim::DiskParams{from_micros(50), 450e6});
    env.set_disk_params(r, 1, sim::DiskParams::ssd());
  }
  mrpstore::StoreClient helper(dep);

  // Peak for this CPU profile is ~13k ops/s; a semi-open load of 640
  // workers at 65 ms think time offers ~10k ops/s (~75% of peak).
  ThroughputTimeline tput(kWindow);
  std::vector<double> lat_sum(static_cast<std::size_t>(kRuntime / kWindow) + 1);
  std::vector<std::uint64_t> lat_n(lat_sum.size());
  Histogram overall_latency;
  smr::ClientNode::Options copts;
  copts.workers = 640;
  copts.retry_timeout = 2 * kSecond;
  copts.start_delay = 200 * kMillisecond;
  copts.think_time = 65 * kMillisecond;
  env.spawn<smr::ClientNode>(
      900, copts,
      smr::ClientNode::NextFn(
          [&helper, n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
            return helper.insert("key" + std::to_string(n++ % 4096),
                                 Bytes(1024, 0x66));
          }),
      smr::ClientNode::DoneFn([&](const smr::Completion& c) {
        const TimeNs t = c.issued_at + c.latency;
        tput.record(t);
        overall_latency.record(c.latency);
        const auto w = static_cast<std::size_t>(t / kWindow);
        if (w < lat_sum.size()) {
          lat_sum[w] += static_cast<double>(c.latency);
          ++lat_n[w];
        }
      }));

  const ProcessId victim = dep.replicas[0][2];
  env.sim().schedule_at(kKillAt, [&] { env.crash(victim); });
  env.sim().schedule_at(kRecoverAt, [&] { env.recover(victim); });

  // Event tracking: sample checkpoint/trim counters every window.
  struct Events {
    std::vector<std::string> marks;
  };
  std::vector<Events> events(lat_sum.size());
  std::uint64_t last_ckpts = 0, last_trims = 0, last_installs = 0;
  std::function<void()> sampler = [&] {
    const auto w = static_cast<std::size_t>(env.now() / kWindow);
    if (w >= events.size()) return;
    std::uint64_t ckpts = 0, trims = 0, installs = 0;
    for (ProcessId r : dep.all_replicas()) {
      if (!env.is_alive(r)) continue;
      auto* rep = env.process_as<smr::ReplicaNode>(r);
      ckpts += rep->checkpointer().checkpoints_taken();
      trims += rep->trim_protocol().trims_issued();
      installs += rep->checkpointer().remote_installs();
    }
    if (ckpts > last_ckpts) events[w].marks.push_back("2:checkpoint");
    if (trims > last_trims) events[w].marks.push_back("3:trim");
    if (installs > last_installs) events[w].marks.push_back("4:recovery");
    last_ckpts = ckpts;
    last_trims = trims;
    last_installs = installs;
    env.sim().schedule_after(kWindow / 2, sampler);
  };
  env.sim().schedule_after(kWindow / 2, sampler);

  env.sim().run_until(kRuntime);

  {
    const auto w = static_cast<std::size_t>(kKillAt / kWindow);
    events[w].marks.insert(events[w].marks.begin(), "1:kill");
  }

  bench::print_header(
      "Figure 8: recovery timeline (1 ring / 3 async acceptors / 3 "
      "replicas, ~75% of peak load; replica killed at 20 s, restarted at "
      "240 s)");
  std::printf("%8s %12s %12s  %s\n", "t_sec", "ops/s", "mean_ms", "events");

  bench::BenchReporter rep("fig8_recovery");
  rep.config("runtime_s", to_seconds(kRuntime))
      .config("kill_at_s", to_seconds(kKillAt))
      .config("recover_at_s", to_seconds(kRecoverAt))
      .config("window_s", to_seconds(kWindow))
      .config("workers", copts.workers)
      .config("write_mode", "async")
      .config("network", "cluster");

  const auto series = tput.series();
  double sum_ops = 0;
  std::size_t windows = 0;
  for (std::size_t w = 0; w < series.size() && w < lat_sum.size(); ++w) {
    const double t_sec = static_cast<double>(w) * to_seconds(kWindow);
    const double mean_ms =
        lat_n[w] ? lat_sum[w] / static_cast<double>(lat_n[w]) / 1e6 : 0.0;
    std::string marks;
    for (const auto& m : events[w].marks) {
      if (!marks.empty()) marks += ' ';
      marks += m;
    }
    std::printf("%8.0f %12.0f %12.2f  %s\n", t_sec, series[w], mean_ms,
                marks.c_str());
    auto& row = rep.row("t=" + std::to_string(static_cast<int>(t_sec)))
                    .metric("t_sec", t_sec)
                    .metric("throughput_ops", series[w])
                    .metric("mean_ms", mean_ms);
    if (!marks.empty()) row.tag("events", marks);
    sum_ops += series[w];
    ++windows;
  }
  rep.row("overall")
      .metric("throughput_ops",
              windows ? sum_ops / static_cast<double>(windows) : 0.0)
      .latency(overall_latency);
  return rep.write() ? 0 : 1;
}
