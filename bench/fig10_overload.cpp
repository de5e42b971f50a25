// Figure 10 (extension) — graceful overload: goodput and p99 latency vs
// offered load on a bounded, credit-based request pipeline.
//
// Production middleware evaluations (e.g. Klüner et al.'s automotive
// middleware comparison) sweep offered load past saturation and report
// goodput-vs-load curves; a correct flow-control design saturates at a
// plateau instead of collapsing, with queue depths bounded by the
// configured caps. This bench reproduces that experiment for MRP-Store:
//
//   1. probe: a closed-loop run measures the deployment's capacity C,
//   2. sweep: semi-open clients offer 0.25x..4x C; each row reports
//      offered vs goodput, p99, pushback/shed counters, and the queue
//      high watermarks of every flow-control layer.
//
// The bench FAILS (non-zero exit) unless goodput at >= 4x capacity stays
// within 10% of the peak across the sweep AND every queue high watermark
// respects its configured cap — the "no collapse, no unbounded queue"
// acceptance criterion.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

constexpr ProcessId kClientPid = 900;
constexpr std::size_t kValueBytes = 64;

// Flow-control caps under test (reported into the JSON config).
constexpr std::size_t kAdmissionCommands = 512;
constexpr std::size_t kAdmissionBytes = 1 << 20;
constexpr std::size_t kRingWindow = 1024;
constexpr std::size_t kRingMaxPending = 2048;

struct RunResult {
  double offered_ops = 0;   // configured offered load (0 = closed loop)
  double goodput_ops = 0;
  double p50_ms = 0, p99_ms = 0;
  std::uint64_t busy_pushbacks = 0;
  std::uint64_t client_retries = 0;
  bench::FlowMetrics flow;
  Histogram latency;
};

mrpstore::StoreOptions store_options() {
  mrpstore::StoreOptions so;
  so.partitions = 1;
  so.replicas_per_partition = 3;
  so.global_ring = false;
  so.ring_params.window = kRingWindow;
  so.ring_params.min_window = 64;
  so.ring_params.max_pending = kRingMaxPending;
  so.ring_params.busy_retry_hint = 2 * kMillisecond;
  so.replica_options.admission_commands = kAdmissionCommands;
  so.replica_options.admission_bytes = kAdmissionBytes;
  so.replica_options.busy_retry_hint = 2 * kMillisecond;
  so.replica_options.batch_bytes = 32 * 1024;
  so.replica_options.batch_delay = 500 * kMicrosecond;
  return so;
}

/// One experiment: `offered_ops` = 0 runs a closed loop (capacity probe);
/// otherwise `workers` semi-open workers offer workers/think_time ops/s.
RunResult run(double offered_ops, std::uint32_t workers, TimeNs think_time,
              std::uint64_t seed) {
  sim::Env env(seed);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);
  auto dep = mrpstore::build_store(env, registry, store_options());
  for (ProcessId r : dep.all_replicas()) env.set_cpu(r, bench::server_cpu());
  auto client_helper = std::make_shared<mrpstore::StoreClient>(dep);

  smr::ClientNode::Options copts = mrpstore::StoreClient::client_options(
      workers, /*max_outstanding=*/512, /*retry_timeout=*/2 * kSecond);
  copts.think_time = think_time;
  copts.start_delay = think_time;  // stagger the open-loop arrivals

  auto* client = env.spawn<smr::ClientNode>(
      kClientPid, copts,
      smr::ClientNode::NextFn([client_helper, n = std::uint64_t{0}](
                                  std::uint32_t) mutable
                              -> std::optional<smr::Request> {
        return client_helper->update("k" + std::to_string(n++ % 4096),
                                     Bytes(kValueBytes, 0x42));
      }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(2));  // warmup: fill windows, settle backoff
  const std::uint64_t before = client->completed();
  client->latency_histogram().clear();
  const TimeNs measure = from_seconds(4);
  env.sim().run_for(measure);

  RunResult r;
  r.offered_ops = offered_ops;
  r.goodput_ops =
      static_cast<double>(client->completed() - before) / to_seconds(measure);
  r.latency = client->latency_histogram();
  r.p50_ms = static_cast<double>(r.latency.quantile(0.50)) / 1e6;
  r.p99_ms = static_cast<double>(r.latency.quantile(0.99)) / 1e6;
  r.busy_pushbacks = client->busy_pushbacks();
  r.client_retries = client->retries();
  r.flow = bench::collect_flow(env, dep.all_replicas(), dep.partition_groups);
  return r;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 10: goodput + p99 vs offered load (bounded pipeline, 1 "
      "partition, RF=3)");

  // Capacity probe: enough closed-loop workers to saturate the partition
  // (the admission window, not worker count, is the limiting factor).
  const RunResult probe = run(0, 512, 0, 1010);
  const double capacity = probe.goodput_ops;
  std::printf("capacity probe (closed loop, 512 workers): %.0f ops/s\n",
              capacity);

  bench::BenchReporter rep("fig10_overload");
  rep.config("partitions", 1)
      .config("replication_factor", 3)
      .config("value_bytes", kValueBytes)
      .config("network", "cluster")
      .config("admission_commands", static_cast<double>(kAdmissionCommands))
      .config("admission_bytes", static_cast<double>(kAdmissionBytes))
      .config("ring_window", static_cast<double>(kRingWindow))
      .config("ring_max_pending", static_cast<double>(kRingMaxPending))
      .config("capacity_ops", capacity);

  const auto report = [&rep](const std::string& label, const RunResult& r) {
    auto& row = rep.row(label)
                    .metric("offered_ops", r.offered_ops)
                    .metric("goodput_ops", r.goodput_ops)
                    .metric("busy_pushbacks", static_cast<double>(r.busy_pushbacks))
                    .metric("client_retries", static_cast<double>(r.client_retries));
    bench::add_flow_metrics(row, r.flow).latency(r.latency);
  };
  report("probe_closed_loop", probe);

  std::printf("%10s %12s %12s %10s %10s %12s %12s\n", "load", "offered/s",
              "goodput/s", "p50 ms", "p99 ms", "pushbacks", "shed");

  const TimeNs think = 20 * kMillisecond;
  const std::vector<double> multiples = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<RunResult> rows;
  for (double mult : multiples) {
    const double offered = capacity * mult;
    const auto workers = static_cast<std::uint32_t>(
        std::max(1.0, offered * to_seconds(think)));
    RunResult r = run(offered, workers, think,
                      2020 + static_cast<std::uint64_t>(mult * 100));
    // std::to_string pads to 6 decimals, so 4 chars is always "0.25",
    // "1.00", "4.00", ...
    const std::string label = std::to_string(mult).substr(0, 4) + "x";
    std::printf("%10s %12.0f %12.0f %10.2f %10.2f %12llu %12llu\n",
                label.c_str(), offered, r.goodput_ops, r.p50_ms, r.p99_ms,
                static_cast<unsigned long long>(r.busy_pushbacks),
                static_cast<unsigned long long>(r.flow.replica_shed +
                                                r.flow.ring_shed));
    report(label, r);
    rows.push_back(std::move(r));
  }

  // --- acceptance: plateau, not collapse; queues bounded by their caps ---
  bool ok = true;
  double peak = 0;
  for (const RunResult& r : rows) peak = std::max(peak, r.goodput_ops);
  const RunResult& top = rows.back();  // the 4x-capacity row
  if (top.goodput_ops < 0.9 * peak) {
    std::printf("FAIL: goodput collapsed at 4x capacity (%.0f < 0.9 * %.0f)\n",
                top.goodput_ops, peak);
    ok = false;
  }
  if (top.busy_pushbacks == 0) {
    std::printf("FAIL: overload never exercised the pushback path\n");
    ok = false;
  }
  for (const RunResult& r : rows) {
    if (r.flow.admission_hwm > kAdmissionCommands ||
        r.flow.pending_hwm > kRingMaxPending ||
        r.flow.inflight_hwm > kRingWindow) {
      std::printf("FAIL: a queue exceeded its cap (adm %zu pend %zu infl %zu)\n",
                  r.flow.admission_hwm, r.flow.pending_hwm,
                  r.flow.inflight_hwm);
      ok = false;
    }
  }
  rep.row("summary")
      .metric("peak_goodput_ops", peak)
      .metric("goodput_at_4x_ops", top.goodput_ops)
      .metric("plateau_ratio", peak > 0 ? top.goodput_ops / peak : 0)
      .metric("bounded", ok ? 1 : 0);
  std::printf("plateau: goodput(4x)/peak = %.3f (>= 0.9 required)\n",
              peak > 0 ? top.goodput_ops / peak : 0);

  const bool wrote = rep.write();
  return ok && wrote ? 0 : 1;
}
