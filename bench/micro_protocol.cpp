// Microbenchmarks (google-benchmark) for the building blocks: codec,
// histogram, RNG/distributions, deterministic merger, simulator core, and a
// full in-memory Ring Paxos instance end-to-end.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.hpp"
#include "codec/codec.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "coord/registry.hpp"
#include "multiring/merger.hpp"
#include "multiring/node.hpp"
#include "sim/env.hpp"
#include "smr/command.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace mrp;

void BM_CodecVarint(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) v = rng.next() >> (rng.next() % 64);
  for (auto _ : state) {
    codec::Writer w;
    for (auto v : values) w.varint(v);
    codec::Reader r(w.buffer());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) sum += r.varint();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_CodecVarint);

void BM_BatchEncodeDecode(benchmark::State& state) {
  smr::Batch batch;
  for (int i = 0; i < 32; ++i) {
    smr::Command c;
    c.session = smr::make_session(7, 1);
    c.seq = static_cast<std::uint64_t>(i);
    c.op = Bytes(1024, 0x5a);
    batch.commands.push_back(std::move(c));
  }
  for (auto _ : state) {
    const Bytes encoded = smr::encode_batch(batch);
    const smr::Batch decoded = smr::decode_batch(encoded);
    benchmark::DoNotOptimize(decoded.commands.size());
  }
  state.SetBytesProcessed(state.iterations() * 32 * 1024);
}
BENCHMARK(BM_BatchEncodeDecode);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(2);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.next_below(100'000'000)));
  }
  benchmark::DoNotOptimize(h.quantile(0.99));
}
BENCHMARK(BM_HistogramRecord);

void BM_ZipfianNext(benchmark::State& state) {
  workload::ScrambledZipfianGenerator gen(1'000'000);
  Rng rng(3);
  std::uint64_t sum = 0;
  for (auto _ : state) sum += gen.next(rng);
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ZipfianNext);

void BM_MergerThroughput(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  std::vector<GroupId> ids;
  for (std::size_t g = 0; g < groups; ++g) ids.push_back(static_cast<GroupId>(g));
  std::uint64_t delivered = 0;
  multiring::DeterministicMerger merger(
      ids, 1,
      [&](GroupId, InstanceId, const paxos::Value&) { ++delivered; });
  std::vector<InstanceId> next(groups, 0);
  paxos::Value v;
  v.payload = Payload(Bytes(64, 1));
  std::size_t g = 0;
  for (auto _ : state) {
    merger.on_decision(static_cast<GroupId>(g), next[g]++, v);
    g = (g + 1) % groups;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergerThroughput)->Arg(1)->Arg(4)->Arg(16);

void BM_SimulatorEventLoop(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t count = 0;
  for (auto _ : state) {
    sim.schedule_after(1, [&] { ++count; });
    sim.step();
  }
  benchmark::DoNotOptimize(count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventLoop);

/// Full Ring Paxos round trip: propose -> decide -> deliver on a 3-node
/// in-memory ring, measured in *wall* time per decided instance (the
/// simulator processes ~10 events per instance).
void BM_RingPaxosInstance(benchmark::State& state) {
  sim::Env env(4);
  env.net().set_default_link({from_micros(50), 10e9});
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);
  coord::RingConfig rc;
  rc.ring = 0;
  rc.order = {1, 2, 3};
  rc.acceptors = {1, 2, 3};
  registry.create_ring(rc);
  multiring::NodeConfig cfg;
  cfg.rings.push_back(multiring::RingSub{0, {}, true});
  std::uint64_t delivered = 0;
  class Node : public multiring::MultiRingNode {
   public:
    Node(runtime::Runtime& rt, coord::Registry* r,
         multiring::NodeConfig c, std::uint64_t* counter)
        : MultiRingNode(rt, r, std::move(c)) {
      set_deliver([counter](GroupId, InstanceId, const Payload&) {
        ++*counter;
      });
    }
  };
  auto* n1 = env.spawn<Node>(1, &registry, cfg, &delivered);
  env.spawn<Node>(2, &registry, cfg, &delivered);
  env.spawn<Node>(3, &registry, cfg, &delivered);
  env.sim().run_for(from_millis(10));

  Payload payload(Bytes(1024, 0x2a));
  for (auto _ : state) {
    n1->multicast(0, payload);
    env.sim().run_for(from_millis(1));
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPaxosInstance);

/// Google Benchmark renamed Run::error_occurred to Run::skipped in v1.8.0;
/// probe for either so this builds against both generations.
template <typename R>
auto run_skipped(const R& run, int) -> decltype(static_cast<bool>(run.skipped)) {
  return static_cast<bool>(run.skipped);
}
template <typename R>
auto run_skipped(const R& run, long) -> decltype(run.error_occurred) {
  return run.error_occurred;
}

/// Mirrors every benchmark run into a BenchReporter row while keeping the
/// normal console table, so micro results land in BENCH_micro_protocol.json
/// like the figure benches.
class JsonBridgeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonBridgeReporter(mrp::bench::BenchReporter* rep) : rep_(rep) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run_skipped(run, 0)) continue;
      auto& row = rep_->row(run.benchmark_name());
      row.metric("iterations", static_cast<double>(run.iterations))
          .metric("real_ns_per_iter", run.GetAdjustedRealTime())
          .metric("cpu_ns_per_iter", run.GetAdjustedCPUTime());
      for (const auto& [name, counter] : run.counters) {
        row.metric(name, counter.value);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  mrp::bench::BenchReporter* rep_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  mrp::bench::BenchReporter rep("micro_protocol");
  JsonBridgeReporter console(&rep);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return rep.write() ? 0 : 1;
}
