// Figure 3 — Multi-Ring Paxos baseline performance.
//
// One ring with three processes (all proposers, acceptors and learners; one
// acceptor coordinates), a dummy service, 10 closed-loop proposer threads,
// ring batching disabled. Five storage modes x request sizes 512 B..32 KB.
// Reported per configuration: throughput (Mbps of delivered payload), mean
// latency (ms), coordinator CPU utilisation (%; >100% means background
// lanes, e.g. the async-mode buffer management that stands in for the
// paper's Java GC), and the latency CDF for 32 KB requests.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/codec.hpp"
#include "coord/registry.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"

namespace {

using namespace mrp;

constexpr GroupId kRing = 0;
constexpr int kProposerThreads = 10;

struct StorageMode {
  const char* name;
  storage::WriteMode mode;
  sim::DiskParams disk;
  double gc_ns_per_byte;  // async modes pay a GC-like background cost
};

const StorageMode kModes[] = {
    {"sync-hdd", storage::WriteMode::Sync, sim::DiskParams::hdd(), 0.0},
    {"sync-ssd", storage::WriteMode::Sync, sim::DiskParams::ssd(), 0.0},
    {"async-hdd", storage::WriteMode::Async, sim::DiskParams::hdd(), 2.5},
    {"async-ssd", storage::WriteMode::Async, sim::DiskParams::ssd(), 2.5},
    {"memory", storage::WriteMode::Memory, sim::DiskParams::memory(), 0.0},
};

const std::size_t kSizes[] = {512, 2048, 8192, 32768};

/// The "dummy service" proposer node: keeps kProposerThreads proposals
/// outstanding; payloads carry a sequence number so the delivery callback
/// can match them to their issue time.
class DummyNode : public multiring::MultiRingNode {
 public:
  DummyNode(runtime::Runtime& rt, coord::Registry* reg,
            multiring::NodeConfig cfg, std::size_t value_bytes, bool driver)
      : MultiRingNode(rt, reg, std::move(cfg)),
        value_bytes_(value_bytes),
        driver_(driver) {
    set_deliver([this](GroupId, InstanceId, const Payload& p) {
      on_delivery(p);
    });
  }

  void on_start() override {
    if (!driver_) return;
    for (int t = 0; t < kProposerThreads; ++t) propose_next();
  }

  void begin_measuring() {
    measuring_ = true;
    bytes_delivered_ = 0;
    latency_.clear();
    started_at_ = now();
  }

  double throughput_mbps() const {
    const double secs = to_seconds(now() - started_at_);
    return secs > 0 ? static_cast<double>(bytes_delivered_) * 8.0 / 1e6 / secs
                    : 0;
  }
  const Histogram& latency() const { return latency_; }

 private:
  void propose_next() {
    codec::Writer w;
    w.u64(next_seq_);
    Bytes payload = w.take();
    payload.resize(value_bytes_, 0x42);
    issued_[next_seq_] = now();
    ++next_seq_;
    multicast(kRing, Payload(std::move(payload)));
  }

  void on_delivery(const Payload& p) {
    if (measuring_) bytes_delivered_ += p.size();
    if (!driver_ || p.size() < 8) return;
    codec::Reader r(p.bytes());
    const std::uint64_t seq = r.u64();
    auto it = issued_.find(seq);
    if (it == issued_.end()) return;  // proposed by someone else
    if (measuring_) latency_.record(now() - it->second);
    issued_.erase(it);
    propose_next();
  }

  std::size_t value_bytes_;
  bool driver_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, TimeNs> issued_;
  bool measuring_ = false;
  std::uint64_t bytes_delivered_ = 0;
  TimeNs started_at_ = 0;
  Histogram latency_;
};

struct Row {
  std::string mode;
  std::size_t size;
  double mbps;
  double mean_ms;
  double p50_ms;
  double cpu_pct;
  Histogram latency;
};

Row run_config(const StorageMode& mode, std::size_t value_bytes,
               Histogram* cdf_out) {
  sim::Env env(2014);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  coord::RingConfig rc;
  rc.ring = kRing;
  rc.order = {1, 2, 3};
  rc.acceptors = {1, 2, 3};
  registry.create_ring(rc);

  ringpaxos::RingParams rp;
  rp.write_mode = mode.mode;
  rp.log_background_ns_per_byte = mode.gc_ns_per_byte;
  rp.lambda = 0;  // single ring: no rate leveling needed

  for (ProcessId p : {1, 2, 3}) {
    env.set_disk_params(p, 0, mode.disk);
  }

  multiring::NodeConfig cfg;
  cfg.rings.push_back(multiring::RingSub{kRing, rp, true});
  auto* driver =
      env.spawn<DummyNode>(1, &registry, cfg, value_bytes, true);
  env.spawn<DummyNode>(2, &registry, cfg, value_bytes, false);
  env.spawn<DummyNode>(3, &registry, cfg, value_bytes, false);
  for (ProcessId p : {1, 2, 3}) env.set_cpu(p, bench::server_cpu());

  // Warm up, then measure.
  env.sim().run_for(from_seconds(2));
  env.reset_cpu_accounting();
  driver->begin_measuring();
  const TimeNs measure = from_seconds(8);
  env.sim().run_for(measure);

  // Node 1 is both driver and (first acceptor) coordinator, matching the
  // paper's bottom-left panel ("CPU at coordinator").
  const double cpu_pct =
      100.0 *
      static_cast<double>(env.cpu_busy(1) + env.cpu_background(1)) /
      static_cast<double>(measure);

  Row row;
  row.mode = mode.name;
  row.size = value_bytes;
  row.mbps = driver->throughput_mbps();
  row.mean_ms = driver->latency().mean() / 1e6;
  row.p50_ms = static_cast<double>(driver->latency().quantile(0.5)) / 1e6;
  row.cpu_pct = cpu_pct;
  row.latency = driver->latency();
  if (cdf_out) cdf_out->merge(driver->latency());
  return row;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 3: Multi-Ring Paxos baseline (1 ring, 3 processes, 10 "
      "proposer threads, batching off)");
  std::printf("%-10s %8s %12s %12s %10s %10s\n", "mode", "size",
              "tput_mbps", "mean_ms", "p50_ms", "cpu%@coord");

  bench::BenchReporter rep("fig3_baseline");
  rep.config("rings", 1)
      .config("processes", 3)
      .config("proposer_threads", kProposerThreads)
      .config("batching", "off")
      .config("network", "cluster");

  std::map<std::string, Histogram> cdfs;
  for (const auto& mode : kModes) {
    for (std::size_t size : kSizes) {
      Histogram* cdf = size == 32768 ? &cdfs.emplace(mode.name, Histogram())
                                            .first->second
                                     : nullptr;
      const Row r = run_config(mode, size, cdf);
      std::printf("%-10s %8zu %12.1f %12.3f %10.3f %10.1f\n", r.mode.c_str(),
                  r.size, r.mbps, r.mean_ms, r.p50_ms, r.cpu_pct);
      rep.row(r.mode + "/" + std::to_string(r.size))
          .tag("mode", r.mode)
          .metric("size_bytes", static_cast<double>(r.size))
          .metric("throughput_mbps", r.mbps)
          .metric("coordinator_cpu_pct", r.cpu_pct)
          .latency(r.latency);
    }
  }

  bench::print_header("Figure 3 (bottom-right): latency CDF at 32 KB");
  for (const auto& [mode, h] : cdfs) bench::print_cdf(h, mode);
  return rep.write() ? 0 : 1;
}
