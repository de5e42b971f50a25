// Figure 13 (extension) — automatic self-healing: goodput timeline of a
// replicated counter ring while one acceptor dies for good at t=4s.
//
// The ring runs with three acceptors plus one standby (a member/learner
// from birth, so it is already current on delivery when drafted). The
// registry's per-ring failure detector suspects the killed acceptor past
// the grace period, drafts the standby, syncs its acceptor log from the
// union of the survivors' logs and activates it under a fenced view — all
// while a closed-loop client keeps the ring saturated. Reported: 250 ms
// goodput timeline, time-to-heal (kill -> activated view), the depth and
// duration of the goodput dip, and p99 latency during the heal window vs
// steady state.
//
// The bench FAILS (non-zero exit) unless
//   * the heal completes (heal_count == 1, standby active in the view),
//   * post-heal goodput recovers to >= 90% of the pre-kill average,
//   * the survivors' merged delivery sequences are identical (zero
//     divergence across the kill + view change + catch-up).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coord/registry.hpp"
#include "sim/env.hpp"
#include "smr/client.hpp"
#include "smr/replica.hpp"

namespace {

using namespace mrp;

constexpr GroupId kRing = 0;
constexpr ProcessId kClientPid = 900;
constexpr std::uint32_t kThreads = 64;
constexpr TimeNs kTick = 250 * kMillisecond;
constexpr TimeNs kSubStep = 25 * kMillisecond;  // heal-time resolution
constexpr int kKillTick = 16;    // kill at t = 4 s
constexpr int kTotalTicks = 48;  // run until t = 12 s
constexpr ProcessId kVictim = 2;

class CounterSm final : public smr::StateMachine {
 public:
  Bytes apply(GroupId, const Bytes& op) override {
    if (mrp::to_string(op) == "inc") ++value_;
    return to_bytes(std::to_string(value_));
  }
  Bytes snapshot() const override { return to_bytes(std::to_string(value_)); }
  void restore(const Bytes& s) override {
    value_ = std::stoll(mrp::to_string(s));
  }

 private:
  std::int64_t value_ = 0;
};

}  // namespace

int main() {
  sim::Env env(131);
  bench::configure_cluster(env);
  coord::Registry registry(env.oracle_runtime(coord::kRegistrySender),
                           100 * kMillisecond);

  coord::RingConfig cfg;
  cfg.ring = kRing;
  cfg.order = {1, 2, 3, 4};
  cfg.acceptors = {1, 2, 3};
  cfg.standbys = {4};
  cfg.fd.auto_heal = true;
  cfg.fd.suspect_grace = 300 * kMillisecond;
  registry.create_ring(cfg);

  multiring::NodeConfig node_cfg;
  node_cfg.rings.push_back(multiring::RingSub{kRing, {}, true});
  std::map<ProcessId, std::vector<InstanceId>> seqs;
  for (ProcessId r : cfg.order) {
    auto* rep = env.spawn<smr::ReplicaNode>(
        r, &registry, node_cfg,
        smr::StateMachineFactory([](runtime::Runtime&, ProcessId) {
          return std::make_unique<CounterSm>();
        }),
        smr::ReplicaOptions{});
    env.set_cpu(r, bench::server_cpu());
    rep->set_delivery_observer(
        [&seqs, r](GroupId, InstanceId i, const Payload&) {
          seqs[r].push_back(i);
        });
  }

  auto* client = env.spawn<smr::ClientNode>(
      kClientPid, smr::ClientNode::Options{kThreads, 2 * kSecond, 0},
      smr::ClientNode::NextFn([](std::uint32_t) -> std::optional<smr::Request> {
        return smr::Request::single(kRing, {1, 2, 3, 4}, to_bytes("inc"));
      }),
      smr::ClientNode::DoneFn(nullptr));

  bench::print_header(
      "Figure 13: self-healing — goodput timeline while an acceptor dies "
      "for good at t=4s (RF 3+1 standby, closed loop)");
  std::printf("%8s %14s %10s\n", "t_s", "ops_per_sec", "phase");

  bench::BenchReporter rep("fig13_selfheal");
  rep.config("client_threads", kThreads)
      .config("acceptors", 3)
      .config("standbys", 1)
      .config("kill_at_seconds", to_seconds(kKillTick * kTick))
      .config("suspect_grace_ms", to_seconds(cfg.fd.suspect_grace) * 1e3)
      .config("network", "cluster");

  std::vector<double> timeline;
  std::uint64_t last_completed = 0;
  TimeNs killed_at = 0, healed_at = 0;
  Histogram heal_window_lat;  // client latency between kill and heal
  for (int tick = 1; tick <= kTotalTicks; ++tick) {
    // Sub-steps give the heal timestamp 25 ms resolution inside the tick.
    for (TimeNs done = 0; done < kTick; done += kSubStep) {
      env.sim().run_for(kSubStep);
      if (killed_at != 0 && healed_at == 0 && registry.heal_count() >= 1) {
        healed_at = env.now();
        heal_window_lat = client->latency_histogram();
      }
    }
    const std::uint64_t done = client->completed();
    const double ops =
        static_cast<double>(done - last_completed) / to_seconds(kTick);
    last_completed = done;
    timeline.push_back(ops);
    const char* phase = tick <= kKillTick  ? "pre-kill"
                        : healed_at == 0   ? "degraded"
                                           : "healed";
    std::printf("%8.2f %14.0f %10s\n", to_seconds(tick * kTick), ops, phase);
    rep.row("t" + std::to_string(tick))
        .tag("phase", phase)
        .metric("t_s", to_seconds(tick * kTick))
        .metric("throughput_ops", ops);

    if (tick == kKillTick) {
      env.crash(kVictim);  // permanent: recovery must come from the standby
      killed_at = env.now();
      client->latency_histogram().clear();  // isolate the heal window's p99
    }
  }
  client->stop();
  env.sim().run_for(2 * kSecond);  // drain so survivors converge

  auto avg = [&timeline](int lo, int hi) {
    double s = 0;
    for (int i = lo; i < hi; ++i) s += timeline[static_cast<std::size_t>(i)];
    return s / (hi - lo);
  };
  const double before = avg(4, kKillTick);  // 1 s .. 4 s
  const double after = avg(kTotalTicks - 16, kTotalTicks);  // 8 s .. 12 s

  // Dip: worst tick and time spent below 50% of the pre-kill average after
  // the kill.
  double dip_min = before;
  double below_half_s = 0;
  for (int i = kKillTick; i < kTotalTicks; ++i) {
    const double v = timeline[static_cast<std::size_t>(i)];
    dip_min = std::min(dip_min, v);
    if (v < 0.5 * before) below_half_s += to_seconds(kTick);
  }

  const double heal_s =
      healed_at > killed_at ? to_seconds(healed_at - killed_at) : -1;
  const double heal_p99_ms =
      static_cast<double>(heal_window_lat.quantile(0.99)) / 1e6;
  const double steady_p99_ms =
      static_cast<double>(client->latency_histogram().quantile(0.99)) / 1e6;

  bool ok = true;
  if (registry.heal_count() != 1 || healed_at == 0) {
    std::printf("FAIL: ring never healed (heal_count=%llu)\n",
                static_cast<unsigned long long>(registry.heal_count()));
    ok = false;
  }
  const coord::RingView& view = registry.current_view(kRing);
  if (view.configured_acceptors != std::vector<ProcessId>{1, 3, 4}) {
    std::printf("FAIL: healed acceptor basis is not {1,3,4}\n");
    ok = false;
  }
  if (after < 0.9 * before) {
    std::printf("FAIL: goodput did not recover (%.0f -> %.0f ops/s, %.0f%%)\n",
                before, after, 100.0 * after / before);
    ok = false;
  }
  for (ProcessId r : {3, 4}) {
    if (seqs[r] != seqs[1]) {
      std::printf("FAIL: survivor %d delivery order diverged\n", r);
      ok = false;
    }
  }

  std::printf("\npre-kill  avg: %10.0f ops/s\n", before);
  std::printf("post-heal avg: %10.0f ops/s (%.0f%% recovered)\n", after,
              100.0 * after / before);
  std::printf("time to heal:  %10.2f s (suspect grace %.2f s)\n", heal_s,
              to_seconds(cfg.fd.suspect_grace));
  std::printf("goodput dip:   %10.0f ops/s floor, %.2f s below 50%%\n",
              dip_min, below_half_s);
  std::printf("p99 latency:   %10.2f ms during heal, %.2f ms steady state\n",
              heal_p99_ms, steady_p99_ms);

  rep.row("summary")
      .metric("pre_kill_ops", before)
      .metric("post_heal_ops", after)
      .metric("recovery_fraction", before > 0 ? after / before : 0)
      .metric("time_to_heal_s", heal_s)
      .metric("dip_floor_ops", dip_min)
      .metric("below_half_seconds", below_half_s)
      .metric("heal_p99_ms", heal_p99_ms)
      .metric("steady_p99_ms", steady_p99_ms)
      .metric("heal_count", static_cast<double>(registry.heal_count()))
      .latency(heal_window_lat);

  return rep.write() && ok ? 0 : 1;
}
