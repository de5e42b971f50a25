// Engine-speed microbench: the canonical events-per-wall-clock-second
// number for the simulator core. Simulator speed bounds every figure bench
// and chaos scenario (simulated throughput is events/sec times work per
// event), so this is the number to watch when touching the hot path.
//
// Four rows isolate the layers of the execution path:
//   * event_loop/small    — bare scheduler churn, captures within the
//                           inline-storage budget (no allocation expected);
//   * event_loop/large    — captures past the inline budget (slab path);
//   * event_loop/deep     — small captures with 50k far-future timeouts
//                           parked in the queue: the realistic queue depth
//                           every figure bench runs at;
//   * network_delivery    — full sim::Env message path: network link model,
//                           CPU lane, process dispatch.
//
// Simulated content is deterministic (fixed seed, fixed event counts); only
// the wall-clock measurements vary run to run. Compare events_per_second
// across builds on the same machine only (see EXPERIMENTS.md).
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "sim/env.hpp"

namespace {

using namespace mrp;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LoopResult {
  std::uint64_t events;
  double wall_seconds;
};

struct SmallCapture {
  std::uint64_t a = 0;
};
struct LargeCapture {
  std::uint64_t a[12] = {};  // 96 B: past any reasonable inline budget
};

/// One self-rescheduling timer chain. The whole struct is the scheduled
/// callable, so its size (via Payload) controls which storage path the
/// engine's Task takes; the harness itself is a few arithmetic ops.
template <class Payload>
struct Chain {
  sim::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t total;
  std::uint64_t mix;
  Payload payload;

  void operator()() {
    if (*fired >= total) return;
    ++*fired;
    // Deterministic delay pattern, no Rng draw per event (keeps the
    // measured cost in the scheduler, not the random stream).
    mix = mix * 6364136223846793005ULL + 1442695040888963407ULL;
    sim->schedule_after(static_cast<TimeNs>(mix >> 52), *this);  // [0,4096) ns
  }
};

/// `chains` self-rescheduling timers, pseudo-random small delays, until
/// `total` events have fired. Exercises heap push/pop and callable dispatch.
/// `parked` far-future events sit in the queue for the whole run, modelling
/// the timeout backlog every figure bench carries (one pending timeout per
/// outstanding request) — this is what makes the queue realistically deep.
template <class Payload>
LoopResult run_event_loop_once(std::uint64_t total, int chains,
                               std::size_t parked) {
  sim::Simulator sim(7);
  for (std::size_t i = 0; i < parked; ++i) {
    sim.schedule_at(kSecond * 1'000'000, [] {});
  }
  std::uint64_t fired = 0;
  const double t0 = now_seconds();
  for (int c = 0; c < chains; ++c) {
    Chain<Payload> chain{&sim, &fired, total,
                         0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c),
                         Payload{}};
    chain();
  }
  sim.run_until_idle();
  return {fired, now_seconds() - t0};
}

/// Best of kReps runs: the minimum wall time is the least-disturbed
/// measurement on a shared machine (standard microbench practice).
constexpr int kReps = 3;

template <class Payload>
LoopResult run_event_loop(std::uint64_t total, int chains,
                          std::size_t parked = 0) {
  LoopResult best{0, 0};
  for (int r = 0; r < kReps; ++r) {
    const LoopResult run = run_event_loop_once<Payload>(total, chains, parked);
    if (best.wall_seconds == 0 || run.wall_seconds < best.wall_seconds) {
      best = run;
    }
  }
  return best;
}

/// Minimal process for the delivery path: forwards each message to the next
/// process in the ring until the budget is exhausted.
struct PingMsg final : runtime::Message {
  std::uint64_t remaining = 0;
  int kind() const override { return 1; }
  std::size_t wire_size() const override { return 64; }
};

class Forwarder : public runtime::Node {
 public:
  Forwarder(runtime::Runtime& rt, int n_procs)
      : runtime::Node(rt), n_procs_(n_procs) {}

  void on_message(ProcessId /*from*/, const runtime::Message& m) override {
    const auto& ping = runtime::msg_cast<PingMsg>(m);
    ++delivered;
    if (ping.remaining == 0) return;
    auto next = std::make_shared<PingMsg>();
    next->remaining = ping.remaining - 1;
    send((id() + 1) % n_procs_, std::move(next));
  }

  std::uint64_t delivered = 0;

 private:
  int n_procs_;
};

LoopResult run_network_delivery_once(std::uint64_t deliveries, int n_procs,
                                     int lanes) {
  sim::Env env(11);
  env.net().set_default_link({from_micros(5), 10e9});
  std::vector<Forwarder*> procs;
  for (int p = 0; p < n_procs; ++p) {
    procs.push_back(env.spawn<Forwarder>(p, n_procs));
  }
  const double t0 = now_seconds();
  for (int l = 0; l < lanes; ++l) {
    auto m = std::make_shared<PingMsg>();
    m->remaining = deliveries / static_cast<std::uint64_t>(lanes);
    env.send_from(l % n_procs, (l + 1) % n_procs, std::move(m));
  }
  env.sim().run_until_idle();
  const double wall = now_seconds() - t0;
  std::uint64_t total = 0;
  for (auto* p : procs) total += p->delivered;
  (void)total;
  return {env.sim().executed_events(), wall};
}

LoopResult run_network_delivery(std::uint64_t deliveries, int n_procs,
                                int lanes) {
  LoopResult best{0, 0};
  for (int r = 0; r < kReps; ++r) {
    const LoopResult run = run_network_delivery_once(deliveries, n_procs, lanes);
    if (best.wall_seconds == 0 || run.wall_seconds < best.wall_seconds) {
      best = run;
    }
  }
  return best;
}

void report(mrp::bench::BenchReporter& rep, const char* label,
            const LoopResult& r) {
  const double eps = static_cast<double>(r.events) / r.wall_seconds;
  std::printf("%-24s %12llu events %8.3f s %14.0f events/s\n", label,
              static_cast<unsigned long long>(r.events), r.wall_seconds, eps);
  rep.row(label)
      .metric("events", static_cast<double>(r.events))
      .metric("wall_seconds", r.wall_seconds)
      .metric("events_per_second", eps);
}

}  // namespace

int main() {
  bench::print_header("micro_sim: engine events per wall-clock second");

  bench::BenchReporter rep("micro_sim");
  rep.config("event_loop_events", 2e6)
      .config("network_deliveries", 1e6)
      .config("chains", 64)
      .config("deep_parked_events", 50e3)
      .config("reps_best_of", kReps)
      .config("build",
#ifdef NDEBUG
              "release"
#else
              "debug"
#endif
      );

  // Warm up allocators and caches with a short run before measuring.
  run_event_loop<SmallCapture>(100'000, 64);

  const LoopResult small = run_event_loop<SmallCapture>(2'000'000, 64);
  report(rep, "event_loop/small", small);

  const LoopResult large = run_event_loop<LargeCapture>(2'000'000, 64);
  report(rep, "event_loop/large", large);

  const LoopResult deep = run_event_loop<SmallCapture>(2'000'000, 64, 50'000);
  report(rep, "event_loop/deep", deep);

  const LoopResult net = run_network_delivery(1'000'000, 8, 16);
  report(rep, "network_delivery", net);

  return rep.write() ? 0 : 1;
}
