// Figure 8b (extension) — throughput/latency timeline under a chaos plan.
//
// Companion to fig8_recovery: the same store topology (one partition, three
// replicas, async acceptor logs) at ~75% of peak load, but driven through a
// deterministic FaultPlan instead of a single scripted crash:
//   1 coordinator crash           (t=20 s, restart t=40 s)
//   2 replica isolated            (t=60 s .. t=72 s ring partition + heal)
//   3 network chaos window        (t=90 s .. t=105 s: drop/dup/reorder)
//   4 checkpoint-disk stall       (t=120 s, 5 s stall on one replica)
// The timeline shows delivery stalling and resuming around each fault; the
// JSON rows carry the per-window throughput/latency plus event marks, and
// the overall row adds the full-run latency histogram and the injected
// fault counters. Identical seeds reproduce the identical timeline.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "coord/registry.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

constexpr std::uint64_t kSeed = 88;
constexpr TimeNs kRuntime = 150 * kSecond;
constexpr TimeNs kWindow = 2 * kSecond;

constexpr TimeNs kCrashAt = 20 * kSecond;
constexpr TimeNs kRestartAt = 40 * kSecond;
constexpr TimeNs kIsolateAt = 60 * kSecond;
constexpr TimeNs kHealAt = 72 * kSecond;
constexpr TimeNs kChaosFrom = 90 * kSecond;
constexpr TimeNs kChaosTo = 105 * kSecond;
constexpr TimeNs kStallAt = 120 * kSecond;
constexpr TimeNs kStallLen = 5 * kSecond;

}  // namespace

int main() {
  sim::Env env(kSeed);
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
  so.replica_options.checkpoint.disk_index = 1;
  so.replica_options.trim.interval = 60 * kSecond;
  auto dep = mrpstore::build_store(env, registry, so);
  for (ProcessId r : dep.all_replicas()) {
    env.set_cpu(r, bench::server_cpu());
    env.set_disk_params(r, 0, sim::DiskParams{from_micros(50), 450e6});
    env.set_disk_params(r, 1, sim::DiskParams::ssd());
  }
  mrpstore::StoreClient helper(dep);

  // Same semi-open ~75%-of-peak load as fig8_recovery.
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

  const ProcessId coordinator = dep.replicas[0][0];
  const ProcessId isolated = dep.replicas[0][1];
  const ProcessId stalled = dep.replicas[0][2];

  fault::FaultPlan plan;
  plan.crash_restart(kCrashAt, coordinator, kRestartAt - kCrashAt);
  plan.partition_window(kIsolateAt, kHealAt, isolated);
  plan.chaos_window(kChaosFrom, kChaosTo,
                    sim::NetFault{0.02, 0.02, kMillisecond});
  plan.disk_stall(kStallAt, stalled, so.replica_options.checkpoint.disk_index,
                  kStallLen);

  fault::FaultInjector injector(env, plan);
  injector.arm();
  env.sim().run_until(kRuntime);

  // Map applied fault events onto timeline windows.
  std::vector<std::string> marks(lat_sum.size());
  auto mark = [&](TimeNs at, const std::string& label) {
    const auto w = static_cast<std::size_t>(at / kWindow);
    if (w >= marks.size()) return;
    if (!marks[w].empty()) marks[w] += ' ';
    marks[w] += label;
  };
  mark(kCrashAt, "1:crash");
  mark(kRestartAt, "1:restart");
  mark(kIsolateAt, "2:isolate");
  mark(kHealAt, "2:heal");
  mark(kChaosFrom, "3:chaos-on");
  mark(kChaosTo, "3:chaos-off");
  mark(kStallAt, "4:disk-stall");

  bench::print_header(
      "Figure 8b: chaos timeline (1 ring / 3 async acceptors / 3 replicas at "
      "~75% load; coordinator crash, ring partition, network chaos, disk "
      "stall)");
  std::printf("%8s %12s %12s  %s\n", "t_sec", "ops/s", "mean_ms", "events");

  bench::BenchReporter rep("fig8b_chaos");
  rep.config("seed", static_cast<double>(kSeed))
      .config("runtime_s", to_seconds(kRuntime))
      .config("window_s", to_seconds(kWindow))
      .config("workers", copts.workers)
      .config("write_mode", "async")
      .config("network", "cluster")
      .config("fault_events", static_cast<double>(plan.size()));

  const auto series = tput.series();
  double sum_ops = 0;
  std::size_t windows = 0;
  for (std::size_t w = 0; w < series.size() && w < lat_sum.size(); ++w) {
    const double t_sec = static_cast<double>(w) * to_seconds(kWindow);
    const double mean_ms =
        lat_n[w] ? lat_sum[w] / static_cast<double>(lat_n[w]) / 1e6 : 0.0;
    std::printf("%8.0f %12.0f %12.2f  %s\n", t_sec, series[w], mean_ms,
                marks[w].c_str());
    auto& row = rep.row("t=" + std::to_string(static_cast<int>(t_sec)))
                    .metric("t_sec", t_sec)
                    .metric("throughput_ops", series[w])
                    .metric("mean_ms", mean_ms);
    if (!marks[w].empty()) row.tag("events", marks[w]);
    sum_ops += series[w];
    ++windows;
  }
  rep.row("overall")
      .metric("throughput_ops",
              windows ? sum_ops / static_cast<double>(windows) : 0.0)
      .metric("faults_applied", static_cast<double>(injector.applied()))
      .metric("net_drops", static_cast<double>(env.net().faults_dropped()))
      .metric("net_dups", static_cast<double>(env.net().faults_duplicated()))
      .metric("net_delays", static_cast<double>(env.net().faults_delayed()))
      .metric("disk_stalls",
              static_cast<double>(env.disk(stalled, 1).stalls()))
      .latency(overall_latency);

  std::printf("\nfault trace:\n");
  for (const std::string& line : injector.trace()) {
    std::printf("  %s\n", line.c_str());
  }
  return rep.write() ? 0 : 1;
}
