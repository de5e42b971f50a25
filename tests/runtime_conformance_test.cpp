// Runtime conformance suite: the behavioural contract every
// runtime::Runtime backend must honour, instantiated for both the
// deterministic simulator (SimRuntime over sim::Env) and the real
// threads+sockets backend (ThreadRuntime over ThreadCluster).
//
// Covered: timer ordering (including same-deadline FIFO), cancel semantics,
// typed stable-slot reuse and crash survival, durable-write completion, and
// send/receive including the wire framing path (on the thread backend every
// cross-process message round-trips through net/wire encode/decode).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "ringpaxos/messages.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/env.hpp"
#include "smr/command.hpp"

namespace mrp {
namespace {

// Event log shared between test thread and loop threads.
class Shared {
 public:
  void record(std::string e) {
    std::lock_guard<std::mutex> lk(mu_);
    events_.push_back(std::move(e));
  }
  std::vector<std::string> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return events_;
  }
  std::size_t count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return events_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> events_;
};

// Minimal actor: describes every delivered message into the shared log.
class ProbeNode final : public runtime::Node {
 public:
  ProbeNode(runtime::Runtime& rt, Shared* shared)
      : runtime::Node(rt), shared_(shared) {}

  void on_message(ProcessId from, const runtime::Message& m) override {
    std::ostringstream os;
    os << "from=" << from << " kind=" << m.kind();
    switch (m.kind()) {
      case smr::kMsgClientReply: {
        const auto& x = runtime::msg_cast<smr::MsgClientReply>(m);
        os << " session=" << x.session << " seq=" << x.seq
           << " tag=" << x.partition_tag << " result=" << to_string(x.result);
        break;
      }
      case ringpaxos::kMsgPhase2: {
        const auto& x = runtime::msg_cast<ringpaxos::MsgPhase2>(m);
        os << " ring=" << x.ring << " ttl=" << x.ttl << " round=" << x.round
           << " instance=" << x.instance << " votes=" << x.votes
           << " proposer=" << x.value.id.proposer << " vseq=" << x.value.id.seq
           << " payload=" << x.value.payload.as_string();
        break;
      }
      default:
        break;
    }
    shared_->record(os.str());
  }

 private:
  Shared* shared_;
};

// ---- backend harness -------------------------------------------------------

class Backend {
 public:
  virtual ~Backend() = default;
  /// The backend's runtime::Cluster (sim::Env or ThreadCluster).
  virtual runtime::Cluster& cluster() = 0;
  virtual void start() = 0;
  /// Takes pid down for good (a crash on the sim, stop_local on threads).
  virtual void kill(ProcessId pid) = 0;
  /// Advances time until pred holds or `budget` elapses (simulated time on
  /// the sim backend, real time on the thread backend).
  virtual bool wait(std::function<bool()> pred, TimeNs budget) = 0;

  void add(ProcessId pid) {
    cluster().add_node(pid, [this](runtime::Runtime& rt) {
      return std::make_unique<ProbeNode>(rt, &shared);
    });
  }
  /// Runs fn in pid's execution context (inline on the sim, on the loop
  /// thread for the thread backend).
  void run_on(ProcessId pid, const std::function<void(runtime::Node&)>& fn) {
    cluster().call(pid, [&fn](runtime::Node* n) { fn(*n); });
  }

  Shared shared;
};

class SimBackend final : public Backend {
 public:
  runtime::Cluster& cluster() override { return env_; }
  void start() override {}
  void kill(ProcessId pid) override { env_.crash(pid); }
  bool wait(std::function<bool()> pred, TimeNs budget) override {
    const TimeNs deadline = env_.now() + budget;
    while (!pred() && env_.sim().pending_events() > 0 &&
           env_.now() <= deadline) {
      env_.sim().step();
    }
    return pred();
  }

 private:
  sim::Env env_{7};
};

class ThreadBackend final : public Backend {
 public:
  ThreadBackend() : cluster_(options()) {}
  ~ThreadBackend() override { cluster_.stop(); }

  runtime::Cluster& cluster() override { return cluster_; }
  void start() override { cluster_.start(); }
  void kill(ProcessId pid) override { cluster_.stop_local(pid); }
  bool wait(std::function<bool()> pred, TimeNs budget) override {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(budget);
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  }

 private:
  static runtime::ThreadClusterOptions options() {
    runtime::ThreadClusterOptions o;
    o.seed = 7;
    o.codec = net::wire_codec();
    return o;
  }
  runtime::ThreadCluster cluster_;
};

enum class Kind { kSim, kThread };

class RuntimeConformanceTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    if (GetParam() == Kind::kSim) {
      backend_ = std::make_unique<SimBackend>();
    } else {
      backend_ = std::make_unique<ThreadBackend>();
    }
  }

  Backend& b() { return *backend_; }

  // Generous budget: simulated ns on the sim, real ns on threads (tests
  // normally finish in a few ms; the budget only bounds failures).
  static constexpr TimeNs kBudget = 10 * kSecond;

 private:
  std::unique_ptr<Backend> backend_;
};

// ---- timers ----------------------------------------------------------------

TEST_P(RuntimeConformanceTest, TimersFireInDeadlineOrderFifoOnTies) {
  b().add(1);
  b().start();
  b().run_on(1, [this](runtime::Node& n) {
    auto& rt = n.rt();
    rt.after(30 * kMillisecond, [this] { b().shared.record("t30"); });
    rt.after(10 * kMillisecond, [this] { b().shared.record("t10a"); });
    rt.after(20 * kMillisecond, [this] { b().shared.record("t20"); });
    rt.after(10 * kMillisecond, [this] { b().shared.record("t10b"); });
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 4; }, kBudget));
  EXPECT_EQ(b().shared.snapshot(),
            (std::vector<std::string>{"t10a", "t10b", "t20", "t30"}));
}

TEST_P(RuntimeConformanceTest, CancelledTimerNeverFires) {
  b().add(1);
  b().start();
  b().run_on(1, [this](runtime::Node& n) {
    auto& rt = n.rt();
    rt.after(5 * kMillisecond, [this] { b().shared.record("keep"); });
    runtime::TimerId victim =
        rt.schedule(5 * kMillisecond, [this] { b().shared.record("victim"); });
    rt.after(40 * kMillisecond, [this] { b().shared.record("late"); });
    rt.cancel(victim);
    rt.cancel(victim);  // double-cancel is a no-op
    rt.cancel(runtime::kNoTimer);
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 2; }, kBudget));
  EXPECT_EQ(b().shared.snapshot(),
            (std::vector<std::string>{"keep", "late"}));
}

TEST_P(RuntimeConformanceTest, CancelAfterFireIsNoOp) {
  b().add(1);
  b().start();
  auto timer = std::make_shared<runtime::TimerId>(runtime::kNoTimer);
  b().run_on(1, [this, timer](runtime::Node& n) {
    *timer = n.rt().schedule(1 * kMillisecond,
                             [this] { b().shared.record("fired"); });
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 1; }, kBudget));
  b().run_on(1, [timer](runtime::Node& n) { n.rt().cancel(*timer); });
  EXPECT_EQ(b().shared.snapshot(), (std::vector<std::string>{"fired"}));
}

TEST_P(RuntimeConformanceTest, CancelRacingViewChangeNeverFiresStaleTimer) {
  // The acceptor-reconfiguration pattern: a view change cancels the
  // coordinator's retry timer from the node's execution context and arms a
  // fresh one under the new epoch. Even when the cancellation lands exactly
  // at the stale timer's deadline (a real race on the thread backend, where
  // the loop may already have popped the entry), the stale callback must
  // never run after the epoch marker — late firings would retry Phase 1
  // under a dead acceptor view. Even rounds cancel before the deadline,
  // odd rounds after it, so both orders are pinned on the sim backend too.
  b().add(1);
  b().start();
  constexpr int kRounds = 30;
  for (int i = 0; i < kRounds; ++i) {
    auto victim = std::make_shared<runtime::TimerId>(runtime::kNoTimer);
    b().run_on(1, [this, victim, i](runtime::Node& n) {
      *victim = n.rt().schedule(1 * kMillisecond, [this, i] {
        b().shared.record("stale" + std::to_string(i));
      });
    });
    if (i % 2 == 1) b().wait([] { return false; }, 2 * kMillisecond);
    b().run_on(1, [this, victim, i](runtime::Node& n) {
      n.rt().cancel(*victim);  // the view change
      n.rt().after(0, [this, i] {
        b().shared.record("epoch" + std::to_string(i));
      });
    });
  }
  auto epochs_done = [this] {
    const auto events = b().shared.snapshot();
    std::size_t epochs = 0;
    for (const auto& e : events) epochs += e.rfind("epoch", 0) == 0;
    return epochs >= kRounds;
  };
  ASSERT_TRUE(b().wait(epochs_done, kBudget));
  const auto events = b().shared.snapshot();
  for (int i = 0; i < kRounds; ++i) {
    const auto stale = std::find(events.begin(), events.end(),
                                 "stale" + std::to_string(i));
    const auto epoch = std::find(events.begin(), events.end(),
                                 "epoch" + std::to_string(i));
    ASSERT_NE(epoch, events.end()) << "epoch marker " << i << " lost";
    if (stale != events.end()) {
      EXPECT_LT(stale - events.begin(), epoch - events.begin())
          << "stale timer " << i << " fired after its cancelling view change";
    }
  }
}

TEST_P(RuntimeConformanceTest, EveryReArmsUntilGateCloses) {
  b().add(1);
  b().start();
  auto active = std::make_shared<bool>(true);
  b().run_on(1, [this, active](runtime::Node& n) {
    n.rt().every_while(2 * kMillisecond, active,
                       [this] { b().shared.record("tick"); });
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 3; }, kBudget));
  b().run_on(1, [active](runtime::Node&) { *active = false; });
  const std::size_t after_close = b().shared.count();
  // One in-flight firing may still land; beyond that the chain is dead.
  b().wait([] { return false; }, 20 * kMillisecond);
  EXPECT_LE(b().shared.count(), after_close + 1);
}

// ---- stable slots ----------------------------------------------------------

TEST_P(RuntimeConformanceTest, StableSlotIsStableAcrossLookups) {
  b().add(1);
  b().start();
  b().run_on(1, [](runtime::Node& n) {
    auto& a = n.rt().stable<std::uint64_t>("conf/counter");
    EXPECT_EQ(a, 0u);  // default-constructed on first use
    a = 41;
    auto& bslot = n.rt().stable<std::uint64_t>("conf/counter");
    EXPECT_EQ(&a, &bslot);
    bslot += 1;
    EXPECT_EQ(n.rt().stable<std::uint64_t>("conf/counter"), 42u);
    // Distinct keys are distinct cells.
    EXPECT_EQ(n.rt().stable<std::uint64_t>("conf/other"), 0u);
  });
}

TEST_P(RuntimeConformanceTest, StableSlotHoldsNonTrivialTypes) {
  b().add(1);
  b().start();
  b().run_on(1, [](runtime::Node& n) {
    auto& v = n.rt().stable<std::vector<std::string>>("conf/names");
    v.push_back("alpha");
    v.push_back("beta");
    EXPECT_EQ(
        (n.rt().stable<std::vector<std::string>>("conf/names").size()), 2u);
  });
}

// ---- durable writes --------------------------------------------------------

TEST_P(RuntimeConformanceTest, DurableWriteCompletionFires) {
  b().add(1);
  b().start();
  b().run_on(1, [this](runtime::Node& n) {
    n.rt().durable_write(0, 4096, [this] { b().shared.record("durable"); });
    n.rt().durable_write(1, 0, nullptr);  // null completion is allowed
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 1; }, kBudget));
  EXPECT_EQ(b().shared.snapshot(), (std::vector<std::string>{"durable"}));
}

// ---- send/receive (thread backend: full wire framing round-trip) -----------

TEST_P(RuntimeConformanceTest, SendDeliversAcrossProcesses) {
  b().add(1);
  b().add(2);
  b().start();
  b().run_on(1, [](runtime::Node& n) {
    auto m = std::make_shared<smr::MsgClientReply>();
    m->session = smr::make_session(9, 3);
    m->seq = 77;
    m->partition_tag = 2;
    m->result = to_bytes("hello");
    n.send(2, std::move(m));
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 1; }, kBudget));
  EXPECT_EQ(b().shared.snapshot()[0],
            "from=1 kind=301 session=9437187 seq=77 tag=2 result=hello");
}

TEST_P(RuntimeConformanceTest, NestedValuePayloadSurvivesFraming) {
  b().add(1);
  b().add(2);
  b().start();
  b().run_on(2, [](runtime::Node& n) {
    auto m = std::make_shared<ringpaxos::MsgPhase2>();
    m->ring = 4;
    m->ttl = 6;
    m->round = 11;
    m->instance = 512;
    m->votes = 0b101;
    m->value.id = ValueId{1, 99};
    m->value.payload = Payload(std::string("payload-bytes"));
    n.send(1, std::move(m));
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 1; }, kBudget));
  EXPECT_EQ(b().shared.snapshot()[0],
            "from=2 kind=103 ring=4 ttl=6 round=11 instance=512 votes=5 "
            "proposer=1 vseq=99 payload=payload-bytes");
}

TEST_P(RuntimeConformanceTest, MessagesFromOneSenderStayOrdered) {
  b().add(1);
  b().add(2);
  b().start();
  constexpr int kN = 50;
  b().run_on(1, [](runtime::Node& n) {
    for (int i = 0; i < kN; ++i) {
      auto m = std::make_shared<smr::MsgClientReply>();
      m->session = 1;
      m->seq = static_cast<std::uint64_t>(i);
      m->result = to_bytes("x");
      n.send(2, std::move(m));
    }
  });
  ASSERT_TRUE(b().wait(
      [this] { return b().shared.count() >= kN; }, kBudget));
  auto events = b().shared.snapshot();
  for (int i = 0; i < kN; ++i) {
    EXPECT_NE(events[static_cast<std::size_t>(i)].find(
                  "seq=" + std::to_string(i)),
              std::string::npos)
        << "out of order at " << i << ": " << events[i];
  }
}

TEST_P(RuntimeConformanceTest, SendToUnknownPeerIsSilentlyDropped) {
  b().add(1);
  b().start();
  b().run_on(1, [this](runtime::Node& n) {
    auto m = std::make_shared<smr::MsgClientReply>();
    m->session = 1;
    n.send(42, std::move(m));  // never registered
    n.rt().after(5 * kMillisecond, [this] { b().shared.record("alive"); });
  });
  ASSERT_TRUE(b().wait([this] { return b().shared.count() >= 1; }, kBudget));
  EXPECT_EQ(b().shared.snapshot(), (std::vector<std::string>{"alive"}));
}

// ---- Cluster::call on a process that is down -----------------------------

// A probe on a dead process must fail loudly on both backends: on the
// thread backend the stopped loop never runs the posted task, so waiting
// for it would hang the caller forever.
class RuntimeConformanceCallDeathTest : public RuntimeConformanceTest {};

TEST_P(RuntimeConformanceCallDeathTest, CallOnDownProcessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        b().add(1);
        b().start();
        b().kill(1);
        b().run_on(1, [](runtime::Node&) {});
      },
      "call on a process that is down");
}

const auto kBackendName = [](const auto& info) {
  return info.param == Kind::kSim ? "Sim" : "Thread";
};
INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformanceTest,
                         ::testing::Values(Kind::kSim, Kind::kThread),
                         kBackendName);
INSTANTIATE_TEST_SUITE_P(Backends, RuntimeConformanceCallDeathTest,
                         ::testing::Values(Kind::kSim, Kind::kThread),
                         kBackendName);

// ---- backend-specific contracts -------------------------------------------

// The typed-reuse abort (one key, two types) — death test on the
// single-threaded sim backend; the check lives in shared Runtime::stable<T>
// code, so it covers the thread backend too.
using RuntimeConformanceDeathTest = ::testing::Test;

TEST(RuntimeConformanceDeathTest, StableSlotTypeMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Env env(3);
  auto& rt = env.runtime_for(1);
  rt.stable<std::uint64_t>("k");
  EXPECT_DEATH(rt.stable<std::int32_t>("k"),
               "stable slot reused with a different type");
}

// File-backed stable slots survive a full cluster restart (the thread
// backend's crash-recovery analogue of Env::stable persistence).
TEST(ThreadRuntimeStableTest, FileBackedSlotSurvivesRestart) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("mrp_conf_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  runtime::ThreadClusterOptions o;
  o.storage_dir = dir.string();
  o.codec = net::wire_codec();

  for (int incarnation = 0; incarnation < 2; ++incarnation) {
    Shared shared;
    runtime::ThreadCluster cluster(o);
    cluster.add_local(1, [&shared](runtime::Runtime& rt) {
      return std::make_unique<ProbeNode>(rt, &shared);
    });
    cluster.start();
    cluster.call(1, [incarnation](runtime::Node* n) {
      auto& counter = n->rt().stable<std::uint64_t>("boots");
      EXPECT_EQ(counter, static_cast<std::uint64_t>(incarnation));
      counter += 1;
    });
    cluster.stop();
  }
  fs::remove_all(dir);
}

// The demand-skip message survives the wire codec field by field, and the
// decoder consumes exactly the bytes the encoder wrote.
TEST(WireCodecTest, SkipDemandRoundTrips) {
  ringpaxos::MsgSkipDemand m;
  m.ring = 7;
  m.ttl = 3;
  m.upto = (InstanceId{1} << 40) + 42;
  codec::Writer w;
  ASSERT_TRUE(net::wire_encode(w, m));
  codec::Reader r(w.buffer());
  const runtime::MessagePtr out = net::wire_decode(ringpaxos::kMsgSkipDemand, r);
  ASSERT_NE(out, nullptr);
  EXPECT_NO_THROW(r.expect_done());
  ASSERT_EQ(out->kind(), ringpaxos::kMsgSkipDemand);
  const auto& d = runtime::msg_cast<ringpaxos::MsgSkipDemand>(*out);
  EXPECT_EQ(d.ring, 7);
  EXPECT_EQ(d.ttl, 3);
  EXPECT_EQ(d.upto, m.upto);
}

// The event loop's epoll timeout: whole milliseconds rounded up (a 5 ms
// timer waits 5 ms, not 6), zero once due, and never above 200 ms.
TEST(ThreadRuntimeWaitTimeoutTest, RoundsUpAndCaps) {
  EXPECT_EQ(runtime::wait_timeout_ms(0), 0);
  EXPECT_EQ(runtime::wait_timeout_ms(-3 * kMillisecond), 0);
  EXPECT_EQ(runtime::wait_timeout_ms(1), 1);
  EXPECT_EQ(runtime::wait_timeout_ms(5 * kMillisecond), 5);
  EXPECT_EQ(runtime::wait_timeout_ms(4 * kMillisecond + 1), 5);
  EXPECT_EQ(runtime::wait_timeout_ms(200 * kMillisecond), 200);
  EXPECT_EQ(runtime::wait_timeout_ms(201 * kMillisecond), 200);
  EXPECT_EQ(runtime::wait_timeout_ms(30 * kSecond), 200);
}

// Counts how many times the wire codec actually serializes a Phase 2 body.
// WireCodec carries plain function pointers, so the counter is a global.
std::atomic<std::uint64_t> g_phase2_encodes{0};

bool counting_encode(codec::Writer& w, const runtime::Message& m) {
  if (m.kind() == ringpaxos::kMsgPhase2) {
    g_phase2_encodes.fetch_add(1, std::memory_order_relaxed);
  }
  return net::wire_codec().encode(w, m);
}

// The encode-once contract: forwarding one message object to several peers
// (a ring pass / broadcast) serializes the body exactly once — later sends
// reuse the cached buffer, so the codec never sees the message again.
TEST(ThreadRuntimeEncodeOnceTest, RingForwardSerializesExactlyOnce) {
  runtime::ThreadClusterOptions o;
  o.codec = net::wire_codec();
  o.codec.encode = &counting_encode;

  Shared shared;
  runtime::ThreadCluster cluster(o);
  for (ProcessId pid : {1, 2, 3}) {
    cluster.add_local(pid, [&shared](runtime::Runtime& rt) {
      return std::make_unique<ProbeNode>(rt, &shared);
    });
  }
  cluster.start();
  g_phase2_encodes.store(0);

  cluster.call(1, [](runtime::Node* n) {
    auto m = std::make_shared<ringpaxos::MsgPhase2>();
    m->ring = 1;
    m->ttl = 2;
    m->round = 3;
    m->instance = 4;
    m->value.id = ValueId{1, 1};
    m->value.payload = Payload(std::string("ring-pass-body"));
    n->send(2, m);  // the ring successor...
    n->send(3, m);  // ...and a learner: same object, one serialization
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shared.count() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(shared.count(), 2u) << "both receivers must get the frame";
  EXPECT_EQ(g_phase2_encodes.load(), 1u);

  const runtime::TransportStats ts = cluster.transport_stats(1);
  EXPECT_GE(ts.frames_sent, 2u);
  cluster.stop();
}

// Back-pressure: a peer that completes the TCP handshake but never reads
// must not wedge the sender or grow its queue without bound. Frames beyond
// max_conn_pending_bytes are dropped (at-most-once delivery) and the
// event loop keeps serving timers throughout.
TEST(ThreadRuntimeBackPressureTest, PendingCapHoldsUnderStalledReader) {
  // Test-owned listener: the kernel accepts the connection into the backlog
  // and buffers what fits; nobody ever reads, so the sender's socket
  // eventually returns EAGAIN and its queue starts growing.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  runtime::ThreadClusterOptions o;
  o.codec = net::wire_codec();
  o.max_conn_pending_bytes = 64u << 10;
  o.flush_hwm_bytes = 16u << 10;

  Shared shared;
  runtime::ThreadCluster cluster(o);
  cluster.add_local(1, [&shared](runtime::Runtime& rt) {
    return std::make_unique<ProbeNode>(rt, &shared);
  });
  cluster.add_remote(2, ntohs(addr.sin_port));
  cluster.start();

  // Far more bytes than cap + kernel buffers can hold.
  cluster.call(1, [](runtime::Node* n) {
    for (int i = 0; i < 8000; ++i) {
      auto m = std::make_shared<smr::MsgClientReply>();
      m->session = 1;
      m->seq = static_cast<std::uint64_t>(i);
      m->result = Bytes(1024, 0xcd);
      n->send(2, std::move(m));
    }
  });

  // The loop must still be alive and serving timers (call() itself would
  // hang forever on a wedged loop; the timer proves forward progress).
  cluster.call(1, [&shared](runtime::Node* n) {
    n->rt().after(kMillisecond, [&shared] { shared.record("tick"); });
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shared.count() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(shared.snapshot(), (std::vector<std::string>{"tick"}));

  const runtime::TransportStats ts = cluster.transport_stats(1);
  EXPECT_GT(ts.frames_dropped, 0u) << "cap never engaged";
  EXPECT_LE(ts.pending_bytes_hwm, o.max_conn_pending_bytes)
      << "per-connection queue exceeded max_conn_pending_bytes";
  cluster.stop();
  ::close(lfd);
}

}  // namespace
}  // namespace mrp
