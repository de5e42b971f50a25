// Figure 5 — dLog vs Apache Bookkeeper (stand-in).
//
// Both systems persist 1 KB appends durably before acknowledging. dLog uses
// two rings with three acceptors each (sync acceptor logs, one journal disk
// per ring); the Bookkeeper stand-in uses an ensemble of three bookies with
// write-quorum 2 and aggressive group commit (large-chunk journal flushes).
// A multithreaded client issues 1 KB appends; the thread count sweeps
// 1..200. Reported: throughput (ops/s) and mean latency (ms) per point.
#include <cstdio>
#include <memory>

#include "baselines/bookkeeper_log.hpp"
#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "dlog/client.hpp"
#include "dlog/dlog.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"

namespace {

using namespace mrp;

constexpr ProcessId kClientPid = 900;
const int kThreadCounts[] = {1, 10, 25, 50, 100, 150, 200};

/// Journal device for both systems: short positioning delay (controller
/// cache), sequential 150 MB/s.
sim::DiskParams journal_disk() { return {from_micros(600), 150e6}; }

struct Point {
  double ops_per_sec;
  double mean_ms;
  Histogram latency;
};

Point run_dlog(int threads) {
  sim::Env env(51);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  dlog::DLogOptions opts;
  opts.num_logs = 2;
  opts.servers = 3;
  opts.ring_params.write_mode = storage::WriteMode::Sync;
  opts.ring_params.lambda = 4000;
  opts.ring_params.skip_interval = 5 * kMillisecond;
  opts.common_params = opts.ring_params;
  // One journal disk per ring on each server (disk index = ring index).
  auto dep = build_dlog(env, registry, opts);
  for (ProcessId s : dep.servers) {
    env.set_cpu(s, bench::server_cpu());
    for (int d = 0; d < 3; ++d) env.set_disk_params(s, d, journal_disk());
  }
  dlog::DLogClient client(dep);

  // dLog's flow-control client options: the outstanding window equals the
  // thread count (pure closed loop), with jittered-backoff retry/pushback.
  smr::ClientNode::Options copts = dlog::DLogClient::client_options(
      static_cast<std::uint32_t>(threads), static_cast<std::uint32_t>(threads),
      5 * kSecond);
  copts.start_delay = 10 * kMillisecond;
  auto* c = env.spawn<smr::ClientNode>(
      kClientPid, copts,
      smr::ClientNode::NextFn(
          [&client, n = 0](std::uint32_t) mutable -> std::optional<smr::Request> {
            return client.append(static_cast<dlog::LogId>(n++ % 2),
                                 Bytes(1024, 0x11));
          }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(2));  // warmup
  c->latency_histogram().clear();
  const auto before = c->completed();
  const TimeNs measure = from_seconds(8);
  env.sim().run_for(measure);
  return {static_cast<double>(c->completed() - before) / to_seconds(measure),
          c->latency_histogram().mean() / 1e6, c->latency_histogram()};
}

Point run_bookkeeper(int threads) {
  sim::Env env(52);
  bench::configure_cluster(env);

  baselines::BookkeeperOptions opts;
  opts.bookies = 3;
  opts.ack_quorum = 2;
  // Aggressive batching "to maximize disk use by writing in large chunks":
  // a chunk is flushed when it reaches 1 MB or has aged out the fill
  // window, whichever comes first. Large chunks maximize device efficiency
  // and dominate the acknowledgement latency.
  opts.bookie.flush_bytes = 1024 * 1024;
  opts.bookie.flush_interval = 250 * kMillisecond;
  auto dep = build_bookkeeper(env, opts);
  for (ProcessId b : dep.bookies) {
    env.set_cpu(b, bench::server_cpu());
    env.set_disk_params(b, 0, journal_disk());
  }

  auto* c = env.spawn<smr::ClientNode>(
      kClientPid, smr::ClientNode::Options{static_cast<std::uint32_t>(threads),
                                           5 * kSecond, 10 * kMillisecond},
      smr::ClientNode::NextFn(
          [&dep](std::uint32_t) -> std::optional<smr::Request> {
            return baselines::bookkeeper_append(dep, Bytes(1024, 0x22));
          }),
      smr::ClientNode::DoneFn(nullptr));

  env.sim().run_for(from_seconds(2));
  c->latency_histogram().clear();
  const auto before = c->completed();
  const TimeNs measure = from_seconds(8);
  env.sim().run_for(measure);
  return {static_cast<double>(c->completed() - before) / to_seconds(measure),
          c->latency_histogram().mean() / 1e6, c->latency_histogram()};
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 5: dLog vs Bookkeeper (1 KB appends, synchronous durability)");
  std::printf("%8s %16s %14s %18s %16s\n", "threads", "dlog_ops/s",
              "dlog_ms", "bookkeeper_ops/s", "bookkeeper_ms");

  bench::BenchReporter rep("fig5_dlog_bookkeeper");
  rep.config("append_bytes", 1024)
      .config("durability", "sync")
      .config("dlog_rings", 2)
      .config("bookies", 3)
      .config("ack_quorum", 2)
      .config("network", "cluster");

  for (int threads : kThreadCounts) {
    const Point d = run_dlog(threads);
    const Point b = run_bookkeeper(threads);
    std::printf("%8d %16.0f %14.2f %18.0f %16.2f\n", threads, d.ops_per_sec,
                d.mean_ms, b.ops_per_sec, b.mean_ms);
    rep.row("dlog/" + std::to_string(threads))
        .tag("system", "dlog")
        .metric("threads", threads)
        .metric("throughput_ops", d.ops_per_sec)
        .latency(d.latency);
    rep.row("bookkeeper/" + std::to_string(threads))
        .tag("system", "bookkeeper")
        .metric("threads", threads)
        .metric("throughput_ops", b.ops_per_sec)
        .latency(b.latency);
  }
  return rep.write() ? 0 : 1;
}
