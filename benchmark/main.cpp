// mrp_bench — the repository's end-to-end benchmark on the real backend.
//
//   mrp_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--out DIR]
//   mrp_bench --selftest
//
// One run measures one workload on K fresh deployments (cluster seed
// seed*16+k), after kSetupRepeats deployments that only time their set-up
// (they also warm the process, whose first cluster is systematically
// slower). Every deployment runs on runtime::ThreadCluster over loopback
// TCP with no injected delay and in-memory storage, so latency is processor
// and scheduling time. Each deployment goes through:
//
//   1. set-up: build the cluster and wait for the first committed reply;
//   2. open loop (Poisson arrivals from the seed): warm-up, then a window
//      that gives the deployment's latency percentiles;
//   3. ring_failover only: a kill tail — one acceptor is stopped for good
//      while the open loop keeps running;
//   4. closed loop (smr::ClientNode, 1024 sessions): warm-up, then a window
//      that gives peak throughput; stop the client and drain;
//   5. check correctness.
//
// Why K deployments: on multi-ring deployments the skip timers of the ring
// coordinators start at phases that stay fixed for a deployment's life, so
// one deployment is one draw of merge latency (dLog's per-deployment p50
// falls in modes near 1.4, 3.6 and 6.5 ms). Each end-to-end metric is the
// median over deployments of that deployment's value, except latency: timer
// phase and host interference only ever slow a deployment down, so p50 and
// p90 are the lower quartile over deployments. Latency pooled over every
// deployment, and the spread between deployments, are reported alongside.
//
// Why 1024 closed-loop sessions: with fewer, the multi-ring workloads are
// latency-bound (sessions / merge latency, Little's law) instead of
// reaching a ceiling, and dLog's peak then follows the timer-phase modes.
//
// --seconds is split across the K deployments: 40% closed window, 60% open
// window. The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exit status is 0 only when
// every correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "coord/registry.hpp"
#include "loadgen.hpp"
#include "net/wire.hpp"
#include "probes.hpp"
#include "runtime/thread_runtime.hpp"
#include "service.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace bench {
int run_selftest();
}  // namespace bench

namespace {

using namespace bench;
using mrp::kMillisecond;
using mrp::kNoProcess;
using mrp::kSecond;
namespace runtime = mrp::runtime;
namespace smr = mrp::smr;

constexpr ProcessId kSinkPid = 900;
constexpr ProcessId kClosedPid = 901;
constexpr std::uint32_t kClosedSessions = 1024;
constexpr double kWarmupS = 0.25;
constexpr double kKillTailS = 1.5;
constexpr int kDeployments = 8;
constexpr int kSetupRepeats = 8;
constexpr std::size_t kTraceRequestsPerDeployment = 1024;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16;
  bool trace = false;
  bool selftest = false;
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mrp_bench: %s\n"
               "usage: mrp_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out DIR]\n"
               "       mrp_bench --selftest\n"
               "workloads: ring_echo kv_read kv_write dlog_append "
               "ring_failover\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + s).c_str());
      return argv[++i];
    };
    if (s == "--workload") {
      a.workload = value();
    } else if (s == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (s == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (s == "--trace") {
      a.trace = value() != "0";
    } else if (s == "--out") {
      a.out = value();
    } else if (s == "--selftest") {
      a.selftest = true;
    } else {
      usage(("unknown argument " + s).c_str());
    }
  }
  if (a.selftest) return a;
  if (!make_service(a.workload)) usage("unknown or missing --workload");
  if (a.seconds <= 0) usage("--seconds must be > 0");
  return a;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return fnv1a(&b, sizeof(b), fnv1a(&a, sizeof(a)));
}

// --- one deployment -----------------------------------------------------------

struct WindowSnapshot {
  std::int64_t t = 0;
  ClientCounters client;
  CounterSnapshot counters;
  std::int64_t process_cpu = 0;
  std::map<ProcessId, std::int64_t> thread_cpu;
};

struct DeploymentResult {
  bool correct = true;
  std::string why;
  double setup_s = 0;
  double rss_mb = 0;  // peak over the deployment's life

  // Closed (peak) window.
  double closed_s = 0;
  std::uint64_t closed_ops = 0;
  double closed_p50_ms = 0;
  ClientCounters client_delta;
  std::uint32_t closed_outstanding = 0;
  runtime::TransportStats net;
  std::int64_t process_cpu = 0;
  std::map<ProcessId, std::int64_t> thread_cpu;  // by pid (-100 = registry)
  ReplicaCounters probe_a, probe_b;              // first replica
  std::uint64_t inflight_hwm = 0, pending_hwm = 0, ring_shed = 0,
                busy_received = 0, admission_hwm = 0, admission_shed = 0;
  CodecTotals codec;

  // Open window (+ kill tail).
  double open_s = 0;
  std::vector<std::int64_t> samples;
  std::vector<std::int64_t> lateness;
  std::uint64_t attempted = 0, failed = 0, wrong = 0, warmup_failed = 0;
  std::uint64_t open_busy = 0, no_session = 0;
  std::int64_t generator_cpu = 0;
  double outage_s = std::nan("");
  double heal_s = std::nan("");

  // Traced values.
  std::vector<std::int64_t> order_ns, reply_ns, lag_ns;
  std::uint64_t exec_count[kOpClasses] = {};
  std::int64_t exec_ns[kOpClasses] = {};
  std::string trace_events;
};

void fail(DeploymentResult& d, const std::string& why) {
  if (d.correct) d.why = why;
  d.correct = false;
}

void append_span(std::string& out, const char* name, int pid,
                 std::uint64_t tid, std::int64_t start, std::int64_t end,
                 std::int64_t origin, std::uint64_t request) {
  if (end < start) return;
  if (!out.empty()) out += ",\n";
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"X\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"tid\":";
  out += std::to_string(tid);
  out += ",\"ts\":";
  json_number(out, static_cast<double>(start - origin) / 1e3);
  out += ",\"dur\":";
  json_number(out, static_cast<double>(end - start) / 1e3);
  out += ",\"args\":{\"request\":";
  out += std::to_string(request);
  out += "}}";
}

void append_counter(std::string& out, int pid, const char* name,
                    std::int64_t t, std::int64_t origin, double value) {
  if (!out.empty()) out += ",\n";
  out += "{\"name\":\"";
  out += name;
  out += "\",\"ph\":\"C\",\"pid\":";
  out += std::to_string(pid);
  out += ",\"ts\":";
  json_number(out, static_cast<double>(t - origin) / 1e3);
  out += ",\"args\":{\"value\":";
  json_number(out, value);
  out += "}}";
}

/// Runs deployment `k` with the given measurement windows; with
/// `setup_only` it stops after the set-up probe.
DeploymentResult run_deployment(const Args& args, int k, double closed_window,
                                double open_window, std::int64_t trace_origin,
                                bool setup_only) {
  DeploymentResult d;
  const std::uint64_t dseed = args.seed * 16 + static_cast<std::uint64_t>(k);
  const int trace_pid_base = 1000 * (k + 1);

  reset_peak_rss();
  std::unique_ptr<Service> svc = make_service(args.workload);
  Tracer tracer;
  Tracer* tr = args.trace ? &tracer : nullptr;
  reset_codec_totals();

  runtime::ThreadClusterOptions opts;
  opts.seed = dseed;
  opts.codec = args.trace ? timed_codec() : mrp::net::wire_codec();
  const std::int64_t t_begin = mono_ns();
  runtime::ThreadCluster cluster(opts);
  mrp::coord::Registry registry(
      cluster.add_oracle(mrp::coord::kRegistrySender), 100 * kMillisecond);
  svc->deploy(cluster, registry, tr);
  cluster.add_local(kSinkPid, [](runtime::Runtime& rt) {
    return std::make_unique<SinkNode>(rt);
  });
  cluster.add_local(kClosedPid, [](runtime::Runtime& rt) {
    return std::make_unique<ClosedHost>(rt);
  });
  cluster.start();
  SinkNode* sink = nullptr;
  ClosedHost* host = nullptr;
  cluster.call(kSinkPid, [&](runtime::Node* n) {
    sink = static_cast<SinkNode*>(n);
  });
  cluster.call(kClosedPid, [&](runtime::Node* n) {
    host = static_cast<ClosedHost*>(n);
  });
  runtime::Runtime& sink_rt = cluster.runtime(kSinkPid);

  // 1. Set-up ends with the first committed reply.
  OpenLoopConfig probe_cfg;
  probe_cfg.sink = kSinkPid;
  probe_cfg.session_base = 65536;  // disjoint from the open loop's sessions
  probe_cfg.sessions = 1;
  probe_cfg.fail_after_ns = 30 * kSecond;
  probe_cfg.warmup_s = 0;
  probe_cfg.window_s = 1;
  probe_cfg.sample_every = 0;
  OpenLoop probe(*svc, {0}, probe_cfg, mix(dseed, 7));
  sink->set_loop(&probe);
  probe.generate(sink_rt, mono_ns());
  if (probe.at(0).state.load() != kOk) {
    fail(d, "set-up: the first request was not answered correctly");
    cluster.stop();
    return d;
  }
  d.setup_s = static_cast<double>(probe.at(0).reply.load() - t_begin) / 1e9;
  if (setup_only) {
    cluster.stop();
    return d;
  }

  std::vector<ProcessId> alive = svc->replicas();
  std::map<ProcessId, int> tids;
  std::vector<ProcessId> threads = alive;
  threads.push_back(mrp::coord::kRegistrySender);
  threads.push_back(kSinkPid);
  threads.push_back(kClosedPid);
  for (ProcessId p : threads) {
    cluster.call(p, [&tids, p](runtime::Node*) { tids[p] = current_tid(); });
  }

  // 2. Open loop, 3. kill tail.
  const ProcessId victim = svc->victim();
  const double tail = victim != kNoProcess ? kKillTailS : 0.0;
  OpenLoopConfig open_cfg;
  open_cfg.sink = kSinkPid;
  open_cfg.warmup_s = kWarmupS;
  open_cfg.window_s = open_window;
  open_cfg.sample_every = args.trace ? 16 : 0;
  OpenLoop open(*svc,
                poisson_offsets(mix(dseed, 1), open_rate(args.workload),
                                kWarmupS + open_window + tail),
                open_cfg, mix(dseed, 2));
  sink->set_loop(&open);
  tracer.set_open(&open);
  const std::int64_t t0 = mono_ns() + 20 * kMillisecond;
  const std::int64_t window_start =
      t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t window_end =
      window_start + static_cast<std::int64_t>(open_window * 1e9);
  std::int64_t kill_ns = 0;
  {
    std::jthread gen([&] { open.generate(sink_rt, t0); });
    sleep_until_ns(window_start);
    const int gen_tid = open.generator_tid();
    const std::int64_t gen_cpu0 = thread_cpu_ns(gen_tid);
    g_phase.store(static_cast<int>(Phase::kOpen));
    sleep_until_ns(window_end);
    g_phase.store(static_cast<int>(Phase::kIdle));
    d.generator_cpu = thread_cpu_ns(gen_tid) - gen_cpu0;
    d.open_s = static_cast<double>(window_end - window_start) / 1e9;
    if (victim != kNoProcess) {
      kill_ns = mono_ns();
      cluster.stop_local(victim);
      alive.erase(std::remove(alive.begin(), alive.end(), victim),
                  alive.end());
      const std::int64_t give_up = kill_ns + 10 * kSecond;
      while (heal_count(registry) < 1 && mono_ns() < give_up) {
        sleep_until_ns(mono_ns() + kMillisecond);
      }
      if (heal_count(registry) >= 1) {
        d.heal_s = static_cast<double>(mono_ns() - kill_ns) / 1e9;
      }
    }
  }
  d.lateness = open.lateness();
  d.open_busy = open.busy_pushbacks();
  d.no_session = open.no_session();
  std::int64_t first_after_kill = 0;
  std::vector<std::int64_t> sampled;
  for (std::size_t i = 0; i < open.size(); ++i) {
    OpenRequest& r = open.at(i);
    const std::uint8_t st = r.state.load();
    const bool ok = st == kOk;
    if (st == kWrong) ++d.wrong;
    if (r.window == 0) {
      if (!ok) ++d.warmup_failed;
      continue;
    }
    ++d.attempted;
    if (!ok) ++d.failed;
    if (r.window == 1) {
      d.samples.push_back(ok ? r.reply.load() - r.due : kFailedSample);
      if (r.sampled) sampled.push_back(static_cast<std::int64_t>(i));
    }
    if (kill_ns > 0 && ok && r.due > kill_ns) {
      const std::int64_t t = r.reply.load();
      if (first_after_kill == 0 || t < first_after_kill) first_after_kill = t;
    }
  }
  if (kill_ns > 0 && first_after_kill > 0) {
    d.outage_s = static_cast<double>(first_after_kill - kill_ns) / 1e9;
  }

  // 4. Closed loop, after the open loop: a burst above the rings' rate
  // leveling leaves a lasting merge delay that would leak into the open
  // loop's latencies.
  std::atomic<std::uint64_t> closed_wrong{0};
  Service* svc_ptr = svc.get();
  cluster.call(kClosedPid, [&](runtime::Node*) {
    smr::ClientNode::Options copts;
    copts.workers = kClosedSessions;
    copts.retry_timeout = kSecond;
    host->start_client(
        copts,
        smr::ClientNode::NextFn(
            [svc_ptr, rng = mrp::Rng(mix(dseed, 3))](
                std::uint32_t) mutable -> std::optional<smr::Request> {
              return svc_ptr->next(rng);
            }),
        smr::ClientNode::DoneFn([svc_ptr, &closed_wrong](
                                    const smr::Completion& c) {
          if (c.results.empty() ||
              !svc_ptr->check_reply(c.op, c.results.begin()->second)) {
            closed_wrong.fetch_add(1);
          }
        }));
  });
  auto snapshot = [&]() {
    WindowSnapshot s;
    cluster.call(kClosedPid, [&](runtime::Node*) {
      s.client = read_client(*host->client());
      s.t = mono_ns();
    });
    s.counters = read_counters(cluster, alive, svc->groups());
    s.process_cpu = process_cpu_ns();
    for (const auto& [p, tid] : tids) s.thread_cpu[p] = thread_cpu_ns(tid);
    return s;
  };
  sleep_for_s(kWarmupS);
  cluster.call(kClosedPid, [&](runtime::Node*) {
    host->client()->latency_histogram().clear();
  });
  const WindowSnapshot a = snapshot();
  g_phase.store(static_cast<int>(Phase::kPeak));
  sleep_for_s(closed_window);
  g_phase.store(static_cast<int>(Phase::kIdle));
  const WindowSnapshot b = snapshot();
  d.codec = codec_totals();
  cluster.call(kClosedPid, [&](runtime::Node*) {
    d.closed_p50_ms = static_cast<double>(
                          host->client()->latency_histogram().quantile(0.5)) /
                      1e6;
    host->client()->stop();
  });
  d.closed_s = static_cast<double>(b.t - a.t) / 1e9;
  d.closed_ops = b.client.completed - a.client.completed;
  d.client_delta.retries = b.client.retries - a.client.retries;
  d.client_delta.busy_pushbacks =
      b.client.busy_pushbacks - a.client.busy_pushbacks;
  d.net = net_delta(a.counters.net, b.counters.net);
  d.process_cpu = b.process_cpu - a.process_cpu;
  for (const auto& [p, cpu] : b.thread_cpu) {
    d.thread_cpu[p] = cpu - a.thread_cpu.at(p);
  }
  d.probe_a = a.counters.replicas.at(alive.front());
  d.probe_b = b.counters.replicas.at(alive.front());
  for (const auto& [p, rc] : b.counters.replicas) {
    d.inflight_hwm = std::max<std::uint64_t>(d.inflight_hwm, rc.inflight_hwm);
    d.pending_hwm = std::max<std::uint64_t>(d.pending_hwm, rc.pending_hwm);
    d.admission_hwm =
        std::max<std::uint64_t>(d.admission_hwm, rc.admission_hwm);
    const ReplicaCounters& ra = a.counters.replicas.at(p);
    d.ring_shed += rc.ring_shed - ra.ring_shed;
    d.busy_received += rc.busy_received - ra.busy_received;
    d.admission_shed += rc.admission_shed - ra.admission_shed;
  }
  // Drain the closed loop before the final checks.
  const std::int64_t drain_deadline = mono_ns() + 2 * kSecond;
  for (;;) {
    ClientCounters c;
    cluster.call(kClosedPid, [&](runtime::Node*) {
      c = read_client(*host->client());
    });
    d.closed_outstanding = c.outstanding;
    if (c.outstanding == 0 || mono_ns() > drain_deadline) break;
    sleep_for_s(0.005);
  }

  // 5. Correctness: replicas converge on one state.
  std::map<ProcessId, std::uint64_t> digests;
  const std::int64_t converge_deadline = mono_ns() + 10 * kSecond;
  for (;;) {
    std::map<ProcessId, std::uint64_t> executed;
    for (ProcessId p : alive) {
      cluster.call(p, [&](runtime::Node* n) {
        auto& rep = dynamic_cast<smr::ReplicaNode&>(*n);
        digests[p] = svc->digest(rep);
        executed[p] = rep.executed();
      });
    }
    const bool same =
        std::all_of(alive.begin(), alive.end(), [&](ProcessId p) {
          return digests[p] == digests[alive.front()] &&
                 executed[p] == executed[alive.front()];
        });
    if (same) break;
    if (mono_ns() > converge_deadline) {
      fail(d, "replica digests differ after the drain");
      break;
    }
    sleep_for_s(0.01);
  }
  if (d.wrong > 0 || closed_wrong.load() > 0) {
    fail(d, std::to_string(d.wrong + closed_wrong.load()) +
                " replies carried a wrong result");
  }
  if (victim != kNoProcess && heal_count(registry) != 1) {
    fail(d, "the ring did not heal exactly once after the kill (heal_count " +
                std::to_string(heal_count(registry)) + ")");
  }
  const bool complete = d.failed == 0 && d.warmup_failed == 0 &&
                        d.closed_outstanding == 0;
  std::string why;
  if (d.correct && !svc->check_final(cluster, alive, complete, &why)) {
    fail(d, why);
  }
  d.rss_mb = peak_rss_mb();
  cluster.stop();
  tracer.set_open(nullptr);

  // Traced values: execute times, request spans, follower lag.
  if (args.trace) {
    std::map<std::pair<GroupId, InstanceId>,
             std::pair<std::int64_t, std::int64_t>>
        first_last;
    std::map<std::pair<GroupId, InstanceId>, std::size_t> seen;
    for (const auto& [pid, rt] : tracer.replicas()) {
      for (int c = 0; c < kOpClasses; ++c) {
        d.exec_count[c] += rt->exec_count[c];
        d.exec_ns[c] += rt->exec_ns[c];
      }
      for (const DeliveryStamp& s : rt->deliveries) {
        const auto key = std::make_pair(s.group, s.instance);
        auto [it, fresh] = first_last.try_emplace(key, s.t, s.t);
        if (!fresh) {
          it->second.first = std::min(it->second.first, s.t);
          it->second.second = std::max(it->second.second, s.t);
        }
        ++seen[key];
      }
    }
    const std::size_t learners = svc->replicas().size();
    for (const auto& [key, fl] : first_last) {
      if (seen[key] == learners) d.lag_ns.push_back(fl.second - fl.first);
    }
    // A request's merged delivery surfaces where it executes. Its "order"
    // span ends, and its "reply" span starts, at the execution on the
    // replica whose reply reached the client first.
    std::map<std::pair<std::uint64_t, ProcessId>, std::int64_t> exec_start;
    for (const auto& [pid, rt] : tracer.replicas()) {
      for (const ExecSpan& s : rt->spans) {
        exec_start[{s.request, pid}] = s.start;
      }
    }
    std::set<std::uint64_t> written;  // requests that go to the trace file
    for (std::int64_t i : sampled) {
      const auto req = static_cast<std::uint64_t>(i);
      OpenRequest& r = open.at(req);
      const bool ok = r.state.load() == kOk;
      const auto it = exec_start.find({req, r.replier.load()});
      const std::int64_t xs = ok && it != exec_start.end() ? it->second : 0;
      if (xs > 0) {
        d.order_ns.push_back(xs - r.sent);
        d.reply_ns.push_back(r.reply.load() - xs);
      }
      if (written.size() >= kTraceRequestsPerDeployment) continue;
      written.insert(req);
      append_span(d.trace_events, ok ? "request" : "request(failed)",
                  trace_pid_base, r.slot, r.due,
                  ok ? r.reply.load() : r.due + open_cfg.fail_after_ns,
                  trace_origin, req);
      if (xs > 0) {
        append_span(d.trace_events, "order", trace_pid_base, r.slot, r.sent,
                    xs, trace_origin, req);
        append_span(d.trace_events, "reply", trace_pid_base, r.slot, xs,
                    r.reply.load(), trace_origin, req);
      }
    }
    for (const auto& [pid, rt] : tracer.replicas()) {
      for (const ExecSpan& s : rt->spans) {
        if (written.count(s.request) == 0) continue;
        append_span(d.trace_events, "execute", trace_pid_base + pid,
                    open.at(s.request).slot, s.start, s.end, trace_origin,
                    s.request);
      }
    }
    append_counter(d.trace_events, trace_pid_base, "closed.completed", a.t,
                   trace_origin, static_cast<double>(a.client.completed));
    append_counter(d.trace_events, trace_pid_base, "closed.completed", b.t,
                   trace_origin, static_cast<double>(b.client.completed));
    append_counter(d.trace_events, trace_pid_base, "net.frames_sent", a.t,
                   trace_origin,
                   static_cast<double>(a.counters.net.frames_sent));
    append_counter(d.trace_events, trace_pid_base, "net.frames_sent", b.t,
                   trace_origin,
                   static_cast<double>(b.counters.net.frames_sent));
  }
  return d;
}

// --- aggregation ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double to_ms(double ns) { return ns / 1e6; }

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.selftest) return bench::run_selftest();

  std::printf("mrp_bench: workload %s, seed %llu, %.3g s measured over %d "
              "deployments%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              kDeployments, args.trace ? " (traced)" : "");
  std::fflush(stdout);

  const std::int64_t origin = mono_ns();
  // Set-up time is small and skewed (thread start-up, first connections),
  // so it is the median over these extra set-ups and the K deployments.
  std::vector<double> setups;
  bool setup_ok = true;
  for (int k = kDeployments; k < kDeployments + kSetupRepeats; ++k) {
    const DeploymentResult d = run_deployment(args, k, 0, 0, origin, true);
    setups.push_back(d.setup_s);
    setup_ok = setup_ok && d.correct;
  }
  // One short unmeasured deployment: the first loaded cluster in a process
  // runs measurably slower on ring_echo (sub-millisecond latencies).
  const int warm_k = kDeployments + kSetupRepeats;
  setup_ok = run_deployment(args, warm_k, 0.2, 0.2, origin, false).correct &&
             setup_ok;
  const double closed_window = 0.4 * args.seconds / kDeployments;
  const double open_window = 0.6 * args.seconds / kDeployments;
  std::vector<DeploymentResult> runs;
  for (int k = 0; k < kDeployments; ++k) {
    const std::int64_t started = mono_ns();
    runs.push_back(run_deployment(args, k, closed_window, open_window, origin,
                                  false));
    const DeploymentResult& d = runs.back();
    std::printf("  deployment %d: setup %.3f s, open p50 %.3f ms, peak %.0f "
                "ops/s, %llu/%llu failed, %.2f s wall%s%s\n",
                k, d.setup_s, to_ms(percentile(d.samples, 0.5)),
                ratio(static_cast<double>(d.closed_ops), d.closed_s),
                static_cast<unsigned long long>(d.failed),
                static_cast<unsigned long long>(d.attempted),
                static_cast<double>(mono_ns() - started) / 1e9,
                d.correct ? "" : " — INCORRECT: ", d.correct ? "" : d.why.c_str());
    std::fflush(stdout);
  }

  // Pool the deployments.
  bool correct = setup_ok;
  std::string why = setup_ok ? "" : "set-up: a first request failed";
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::int64_t> samples, lateness, order, reply, lag;
  std::vector<double> outages, heals, dep_p50, dep_p90, dep_rss,
      dep_peak;
  double closed_s = 0, open_s = 0, closed_ops = 0, proc_cpu = 0, gen_cpu = 0;
  double syscalls = 0, bytes = 0, flushed_frames = 0, flushes = 0,
         wakes_req = 0, wakes_written = 0, encoded = 0, frames_sent = 0,
         dropped = 0;
  double pending_bytes_hwm = 0, inflight_hwm = 0, pending_hwm = 0,
         admission_hwm = 0, ring_shed = 0, busy_received = 0,
         admission_shed = 0, retries = 0, busy_pushbacks = 0, open_busy = 0,
         warmup_failed = 0, no_session = 0;
  double instances = 0, skipped = 0, merged = 0, executed = 0;
  double enc_ns = 0, enc_bytes = 0, dec_ns = 0, dec_bytes = 0;
  std::map<ProcessId, double> thread_cpu;
  double exec_count[kOpClasses] = {}, exec_ns[kOpClasses] = {};
  double closed_p50_sum = 0;
  std::string trace_events;
  for (const DeploymentResult& d : runs) {
    if (!d.correct && correct) why = d.why;
    correct = correct && d.correct;
    attempted += d.attempted;
    failed += d.failed;
    samples.insert(samples.end(), d.samples.begin(), d.samples.end());
    lateness.insert(lateness.end(), d.lateness.begin(), d.lateness.end());
    order.insert(order.end(), d.order_ns.begin(), d.order_ns.end());
    reply.insert(reply.end(), d.reply_ns.begin(), d.reply_ns.end());
    lag.insert(lag.end(), d.lag_ns.begin(), d.lag_ns.end());
    setups.push_back(d.setup_s);
    if (!std::isnan(d.outage_s)) outages.push_back(d.outage_s);
    if (!std::isnan(d.heal_s)) heals.push_back(d.heal_s);
    dep_p50.push_back(percentile(d.samples, 0.5));
    dep_p90.push_back(percentile(d.samples, 0.9));
    dep_rss.push_back(d.rss_mb);
    dep_peak.push_back(ratio(static_cast<double>(d.closed_ops), d.closed_s));
    closed_s += d.closed_s;
    open_s += d.open_s;
    closed_ops += static_cast<double>(d.closed_ops);
    closed_p50_sum += d.closed_p50_ms;
    proc_cpu += static_cast<double>(d.process_cpu);
    gen_cpu += static_cast<double>(d.generator_cpu);
    syscalls += static_cast<double>(d.net.syscalls);
    bytes += static_cast<double>(d.net.flushed_bytes);
    flushed_frames += static_cast<double>(d.net.flushed_frames);
    flushes += static_cast<double>(d.net.flushes);
    wakes_req += static_cast<double>(d.net.wakes_requested);
    wakes_written += static_cast<double>(d.net.wakes_written);
    encoded += static_cast<double>(d.net.bodies_encoded);
    frames_sent += static_cast<double>(d.net.frames_sent);
    dropped += static_cast<double>(d.net.frames_dropped);
    pending_bytes_hwm = std::max(
        pending_bytes_hwm, static_cast<double>(d.net.pending_bytes_hwm));
    inflight_hwm = std::max(inflight_hwm, static_cast<double>(d.inflight_hwm));
    pending_hwm = std::max(pending_hwm, static_cast<double>(d.pending_hwm));
    admission_hwm =
        std::max(admission_hwm, static_cast<double>(d.admission_hwm));
    ring_shed += static_cast<double>(d.ring_shed);
    busy_received += static_cast<double>(d.busy_received);
    admission_shed += static_cast<double>(d.admission_shed);
    retries += static_cast<double>(d.client_delta.retries);
    busy_pushbacks += static_cast<double>(d.client_delta.busy_pushbacks);
    open_busy += static_cast<double>(d.open_busy);
    warmup_failed += static_cast<double>(d.warmup_failed);
    no_session += static_cast<double>(d.no_session);
    for (const auto& [g, next] : d.probe_b.next_delivery) {
      instances += static_cast<double>(next - d.probe_a.next_delivery.at(g));
    }
    skipped += static_cast<double>(d.probe_b.skipped_instances -
                                   d.probe_a.skipped_instances);
    merged += static_cast<double>(d.probe_b.merged_values -
                                  d.probe_a.merged_values);
    executed +=
        static_cast<double>(d.probe_b.executed - d.probe_a.executed);
    enc_ns += static_cast<double>(d.codec.encode_ns);
    enc_bytes += static_cast<double>(d.codec.encode_bytes);
    dec_ns += static_cast<double>(d.codec.decode_ns);
    dec_bytes += static_cast<double>(d.codec.decode_bytes);
    for (const auto& [p, cpu] : d.thread_cpu) {
      thread_cpu[p] += static_cast<double>(cpu);
    }
    for (int c = 0; c < kOpClasses; ++c) {
      exec_count[c] += static_cast<double>(d.exec_count[c]);
      exec_ns[c] += static_cast<double>(d.exec_ns[c]);
    }
    if (!d.trace_events.empty()) {
      if (!trace_events.empty()) trace_events += ",\n";
      trace_events += d.trace_events;
    }
  }
  double loop_util_max = 0;
  ProcessId busiest = kNoProcess;
  for (const auto& [p, cpu] : thread_cpu) {
    const double util = ratio(cpu / 1e9, closed_s);
    if (util > loop_util_max) {
      loop_util_max = util;
      busiest = p;
    }
  }
  double all_exec_count = 0, all_exec_ns = 0;
  for (int c = 0; c < kOpClasses; ++c) {
    all_exec_count += exec_count[c];
    all_exec_ns += exec_ns[c];
  }
  // Values only a traced run measures read null in untraced result files.
  auto traced = [&args](double v) { return args.trace ? v : std::nan(""); };
  const double min_p50 = *std::min_element(dep_p50.begin(), dep_p50.end());
  const double max_p50 = *std::max_element(dep_p50.begin(), dep_p50.end());

  const std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s"},
      {"peak_ops_s", median(dep_peak), "ops/s"},
      {"p50_ms", to_ms(quantile(dep_p50, 0.25)), "ms"},
      {"p90_ms", to_ms(quantile(dep_p90, 0.25)), "ms"},
      {"rss_mb", median(dep_rss), "MB"},
  };
  const std::vector<Metric> layers = {
      {"runtime.syscalls_per_op", ratio(syscalls, closed_ops), "count"},
      {"runtime.bytes_per_op", ratio(bytes, closed_ops), "B"},
      {"runtime.frames_per_flush", ratio(flushed_frames, flushes), "count"},
      {"runtime.wake_coalesce", ratio(wakes_req, wakes_written), "ratio"},
      {"runtime.pending_bytes_hwm", pending_bytes_hwm, "B"},
      {"cpu.us_per_op", ratio(proc_cpu / 1e3, closed_ops), "us"},
      {"cpu.loop_util_max", loop_util_max, "ratio"},
      {"cpu.client_util", ratio(thread_cpu[kClosedPid] / 1e9, closed_s),
       "ratio"},
      {"cpu.load_util", ratio(gen_cpu / 1e9, open_s), "ratio"},
      {"net.encode_ns_per_kib", traced(ratio(enc_ns, enc_bytes / 1024.0)),
       "ns"},
      {"net.decode_ns_per_kib", traced(ratio(dec_ns, dec_bytes / 1024.0)),
       "ns"},
      {"net.encodes_per_frame", ratio(encoded, frames_sent), "ratio"},
      {"ringpaxos.instances_per_s", ratio(instances, closed_s), "1/s"},
      {"ringpaxos.skip_share", ratio(skipped, skipped + merged), "ratio"},
      {"ringpaxos.cmds_per_instance", ratio(executed, merged), "count"},
      {"ringpaxos.inflight_hwm", inflight_hwm, "count"},
      {"multiring.delivered_p50_ms", to_ms(percentile(order, 0.50)), "ms"},
      {"multiring.delivered_p90_ms", to_ms(percentile(order, 0.90)), "ms"},
      {"multiring.follower_lag_p90_ms", to_ms(percentile(lag, 0.90)), "ms"},
      {"multiring.phase_spread", ratio(max_p50, min_p50), "ratio"},
      {"smr.execute_us_mean", traced(ratio(all_exec_ns / 1e3, all_exec_count)),
       "us"},
      {"smr.reply_p50_ms", to_ms(percentile(reply, 0.50)), "ms"},
      {"smr.admission_hwm", admission_hwm, "count"},
      {"smr.executed_per_s", ratio(executed, closed_s), "1/s"},
      {"client.retries", retries, "count"},
      {"load.late_p99_ms", to_ms(percentile(lateness, 0.99)), "ms"},
      {"load.samples", static_cast<double>(samples.size()), "count"},
  };
  std::vector<Metric> diag = {
      {"pooled_p50_ms", to_ms(percentile(samples, 0.50)), "ms"},
      {"pooled_p90_ms", to_ms(percentile(samples, 0.90)), "ms"},
      {"pooled_peak_ops_s", ratio(closed_ops, closed_s), "ops/s"},
      {"p99_ms", to_ms(percentile(samples, 0.99)), "ms"},
      {"p999_ms", to_ms(percentile(samples, 0.999)), "ms"},
      {"failed_frac", ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)), "ratio"},
      {"closed_p50_ms", closed_p50_sum / static_cast<double>(runs.size()),
       "ms"},
      {"outage_s", median(outages), "s"},
      {"coord.heal_s", median(heals), "s"},
      {"runtime.frames_dropped", dropped, "count"},
      {"ringpaxos.pending_hwm", pending_hwm, "count"},
      {"ringpaxos.shed", ring_shed, "count"},
      {"ringpaxos.busy_received", busy_received, "count"},
      {"smr.admission_shed", admission_shed, "count"},
      {"client.busy_pushbacks", busy_pushbacks, "count"},
      {"load.busy_pushbacks", open_busy, "count"},
      {"load.warmup_failed", warmup_failed, "count"},
      {"load.no_session", no_session, "count"},
      {"cpu.busiest_pid", static_cast<double>(busiest), "pid"},
  };
  const std::unique_ptr<Service> names = make_service(args.workload);
  const std::vector<std::string> classes = names->op_class_names();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    diag.push_back({classes[c],
                    exec_count[c] > 0 ? exec_ns[c] / 1e3 / exec_count[c]
                                      : std::nan(""),
                    "us"});
  }
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const std::string dep = "deployment" + std::to_string(k);
    diag.push_back({dep + ".p50_ms", to_ms(dep_p50[k]), "ms"});
    diag.push_back({dep + ".p90_ms", to_ms(dep_p90[k]), "ms"});
    diag.push_back({dep + ".peak_ops_s", dep_peak[k], "ops/s"});
  }

  auto print = [](const char* title, const std::vector<Metric>& ms) {
    std::printf("%s\n", title);
    for (const Metric& m : ms) {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  };
  print("end-to-end:", e2e);
  print("per-layer:", layers);
  print("diagnostics:", diag);
  std::printf("correct: %s%s%s\n", correct ? "yes" : "NO",
              correct ? "" : " — ", correct ? "" : why.c_str());

  auto metrics_json = [](const std::vector<Metric>& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (i > 0) out += ", ";
      json_string(out, ms[i].name);
      out += ": {\"value\": ";
      json_number(out, ms[i].value);
      out += ", \"unit\": ";
      json_string(out, ms[i].unit);
      out += "}";
    }
    return out + "}";
  };

  // Results file: everything measured, for compare.py and later analysis.
  std::string results = "{\"workload\": ";
  json_string(results, args.workload);
  results += ", \"seed\": " + std::to_string(args.seed);
  results += ", \"seconds\": ";
  json_number(results, args.seconds);
  results += ", \"deployments\": " + std::to_string(kDeployments);
  results += std::string(", \"trace\": ") + (args.trace ? "true" : "false");
  results += std::string(", \"correct\": ") + (correct ? "true" : "false");
  results += ", \"attempted\": " + std::to_string(attempted);
  results += ", \"failed\": " + std::to_string(failed);
  results += ", \"end_to_end\": " + metrics_json(e2e);
  results += ", \"per_layer\": " + metrics_json(layers);
  results += ", \"diagnostics\": " + metrics_json(diag) + "}\n";
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  if (ec) {
    std::fprintf(stderr, "mrp_bench: cannot create %s\n", args.out.c_str());
  }
  const std::string stem = args.out + "/" + args.workload + "_seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "_traced" : "");
  std::ofstream(stem + ".json") << results;
  if (args.trace) {
    std::ofstream(args.out + "/trace_" + args.workload + ".json")
        << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << trace_events << "\n]}\n";
  }

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": " + metrics_json(args.trace ? layers : e2e) + "}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
