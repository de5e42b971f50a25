// mrp_bench --selftest: checks the measurement itself against a stub
// replica that answers each request immediately (or, on demand, stalls or
// drops requests), so the load generator's behaviour is known exactly.
//
//   1. An injected 50 ms stall is charged to every request due during it
//      (latency counts from the due time: no coordinated omission).
//   2. The same seed gives the same schedule checksum; another seed does not.
//   3. Percentiles count failed requests as +infinity.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "net/wire.hpp"
#include "runtime/thread_runtime.hpp"
#include "util.hpp"

namespace bench {

namespace {

namespace runtime = mrp::runtime;
namespace smr = mrp::smr;

constexpr ProcessId kStub = 1;
constexpr ProcessId kSink = 900;

std::uint64_t op_counter(const Bytes& op) {
  std::uint64_t n = 0;
  std::copy_n(op.begin(), 8, reinterpret_cast<std::uint8_t*>(&n));
  return n;
}

/// Answers every request at once with its own op; drops the requests whose
/// counter is a multiple of drop_every (0 = none).
class StubReplica final : public runtime::Node {
 public:
  using Node::Node;
  std::uint64_t drop_every = 0;

  void on_message(ProcessId, const runtime::Message& m) override {
    if (m.kind() != smr::kMsgClientRequest) return;
    const auto& req = runtime::msg_cast<smr::MsgClientRequest>(m);
    if (drop_every > 0 && op_counter(req.command.op) % drop_every == 0) return;
    auto reply = std::make_shared<smr::MsgClientReply>();
    reply->session = req.command.session;
    reply->seq = req.command.seq;
    reply->result = req.command.op;
    send(smr::session_client(req.command.session), reply);
  }
};

class StubSource final : public RequestSource {
 public:
  smr::Request next(mrp::Rng& rng) override {
    Bytes op(16);
    const std::uint64_t n = counter_++;
    const std::uint64_t salt = rng.next();
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&n), 8, op.begin());
    std::copy_n(reinterpret_cast<const std::uint8_t*>(&salt), 8,
                op.begin() + 8);
    return smr::Request::single(0, {kStub}, std::move(op));
  }
  bool check_reply(const Bytes& op, const Bytes& result) override {
    return op == result;
  }

 private:
  std::uint64_t counter_ = 0;
};

/// A stub deployment: one stub replica and the sink.
struct StubCluster {
  runtime::ThreadCluster cluster;
  StubReplica* stub = nullptr;
  SinkNode* sink = nullptr;

  StubCluster() : cluster(options()) {
    cluster.add_local(kStub, [](runtime::Runtime& rt) {
      return std::make_unique<StubReplica>(rt);
    });
    cluster.add_local(kSink, [](runtime::Runtime& rt) {
      return std::make_unique<SinkNode>(rt);
    });
    cluster.start();
    cluster.call(kStub, [this](runtime::Node* n) {
      stub = static_cast<StubReplica*>(n);
    });
    cluster.call(kSink, [this](runtime::Node* n) {
      sink = static_cast<SinkNode*>(n);
    });
  }

  static runtime::ThreadClusterOptions options() {
    runtime::ThreadClusterOptions o;
    o.codec = mrp::net::wire_codec();
    return o;
  }
};

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "pass" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

OpenLoopConfig stub_config(double window_s) {
  OpenLoopConfig c;
  c.sink = kSink;
  c.sessions = 4096;
  c.warmup_s = 0;
  c.window_s = window_s;
  c.sample_every = 0;
  return c;
}

void stall_is_charged() {
  StubCluster sc;
  StubSource source;
  OpenLoop loop(source, poisson_offsets(11, 2000, 1.0), stub_config(1.0), 12);
  sc.sink->set_loop(&loop);
  const std::int64_t t0 = mono_ns() + 20'000'000;
  std::int64_t stall_start = 0, stall_end = 0;
  {
    std::thread gen(
        [&] { loop.generate(sc.cluster.runtime(kSink), t0); });
    sleep_until_ns(t0 + 400'000'000);
    sc.cluster.call(kStub, [&](runtime::Node*) {
      stall_start = mono_ns();
      sleep_for_s(0.050);
      stall_end = mono_ns();
    });
    gen.join();
  }
  sc.cluster.stop();  // no reply may reach `loop` after this scope
  std::size_t due_in_stall = 0, charged = 0;
  std::vector<std::int64_t> samples;
  for (std::size_t i = 0; i < loop.size(); ++i) {
    OpenRequest& r = loop.at(i);
    const bool ok = r.state.load() == kOk;
    samples.push_back(ok ? r.reply.load() - r.due : kFailedSample);
    if (r.due >= stall_start && r.due < stall_end) {
      ++due_in_stall;
      // Answered no earlier than the stall's end, and the latency covers
      // the whole wait from the due time.
      if (ok && r.reply.load() - r.due >= stall_end - r.due) ++charged;
    }
  }
  expect(due_in_stall >= 50, "requests due during the 50 ms stall: " +
                                 std::to_string(due_in_stall));
  expect(charged == due_in_stall,
         "stall charged to every request due during it (" +
             std::to_string(charged) + "/" + std::to_string(due_in_stall) +
             ")");
  const double p99_ms = percentile(samples, 0.99) / 1e6;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "stall visible in the tail: p99 %.2f ms",
                p99_ms);
  expect(p99_ms >= 20, buf);
  std::printf("  [info] generator lateness p99 %.3f ms\n",
              percentile(loop.lateness(), 0.99) / 1e6);
}

void schedule_is_seeded() {
  auto checksum = [](std::uint64_t seed) {
    StubSource source;
    return schedule_checksum(poisson_offsets(seed, 5000, 1.0), source,
                             seed + 1);
  };
  const std::uint64_t a = checksum(1), b = checksum(1), c = checksum(2);
  expect(a == b, "same seed, same schedule checksum");
  expect(a != c, "different seed, different schedule checksum");
}

void failures_are_infinite() {
  std::vector<std::int64_t> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, kFailedSample};
  expect(percentile(v, 0.5) == 5 && percentile(v, 0.9) == 9 &&
             std::isinf(percentile(v, 0.99)),
         "nearest-rank percentiles with one failure in ten");
  // Live: the stub drops one request in 20, which then fails after 1 s.
  StubCluster sc;
  sc.cluster.call(kStub, [&](runtime::Node*) { sc.stub->drop_every = 20; });
  StubSource source;
  OpenLoop loop(source, poisson_offsets(21, 1000, 0.5), stub_config(0.5), 22);
  sc.sink->set_loop(&loop);
  loop.generate(sc.cluster.runtime(kSink), mono_ns() + 10'000'000);
  sc.cluster.stop();
  std::vector<std::int64_t> samples;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < loop.size(); ++i) {
    OpenRequest& r = loop.at(i);
    const bool ok = r.state.load() == kOk;
    failed += ok ? 0 : 1;
    samples.push_back(ok ? r.reply.load() - r.due : kFailedSample);
  }
  expect(failed > 0 && std::isinf(percentile(samples, 0.99)) &&
             std::isfinite(percentile(samples, 0.5)),
         "dropped requests fail and make p99 infinite (" +
             std::to_string(failed) + " of " + std::to_string(loop.size()) +
             " failed)");
}

}  // namespace

int run_selftest() {
  const std::int64_t start = mono_ns();
  std::printf("mrp_bench self-test\n");
  stall_is_charged();
  schedule_is_seeded();
  failures_are_infinite();
  std::printf("self-test %s in %.2f s\n", failures == 0 ? "passed" : "FAILED",
              static_cast<double>(mono_ns() - start) / 1e9);
  return failures == 0 ? 0 : 1;
}

}  // namespace bench
