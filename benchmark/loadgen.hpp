// Open-loop load generation over the real transport.
//
// A precomputed Poisson schedule (from the benchmark seed) is replayed by one
// generator thread that sleeps to each absolute due time with
// clock_nanosleep(TIMER_ABSTIME) and hands smr::MsgClientRequest messages to
// the sink process's runtime through its cross-thread send. Arrivals are not
// scheduled on ThreadRuntime timers on purpose: the event loop rounds every
// timer deadline up to whole milliseconds, which at thousands of requests
// per second turns a schedule into bursts and drifts behind it.
//
// The sink is an ordinary node on the cluster (SinkNode). It matches each
// reply to its request by (session, seq), checks the result, and stamps the
// reply time. Latency is reply time minus *due* time, so a stall anywhere —
// including in the generator itself — is charged to every request that was
// due while it lasted (no coordinated omission). A request fails if it has
// no correct reply 1 s after it was due; failures count as +infinity in
// every percentile.
//
// Sessions: each request borrows one of `sessions` client sessions for its
// lifetime, so a session never has two requests in flight (the replicas'
// exactly-once table keys on (session, seq) with one outstanding request per
// session). A MsgClientBusy pushback re-sends the same (session, seq) to the
// next candidate proposer after its retry_after, as smr::ClientNode does.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "runtime/node.hpp"
#include "smr/client.hpp"
#include "smr/command.hpp"

namespace bench {

using mrp::Bytes;
using mrp::ProcessId;

/// Where requests come from and how their replies are judged — implemented
/// by each workload's service (service.hpp) and by the self-test stub.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// The next operation, drawn from `rng`. Called by one thread at a time.
  virtual mrp::smr::Request next(mrp::Rng& rng) = 0;
  /// True when `result` is a correct reply to `op`. May record what the
  /// reply acknowledged (the final correctness checks use it).
  virtual bool check_reply(const Bytes& op, const Bytes& result) = 0;
};

/// Poisson arrival offsets (ns from the phase start) at `rate` per second
/// over `seconds`, drawn from `seed`.
std::vector<std::int64_t> poisson_offsets(std::uint64_t seed, double rate,
                                          double seconds);

/// Checksum of a schedule: its offsets and the operations `source` draws
/// for them from `ops_seed`. Same seed, same checksum.
std::uint64_t schedule_checksum(const std::vector<std::int64_t>& offsets,
                                RequestSource& source, std::uint64_t ops_seed);

enum ReqState : std::uint8_t { kPending = 0, kOk, kWrong, kFailed };

/// One scheduled request. Plain fields are written by the generator before
/// the request's session slot is published (release) and read by the sink
/// and the replicas' trace hooks after they find it (acquire).
struct OpenRequest {
  std::int64_t due = 0;   ///< absolute mono_ns
  std::int64_t sent = 0;  ///< first send, absolute mono_ns
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;   ///< session slot index
  std::uint8_t window = 0;  ///< 0 warm-up, 1 measured window, 2 tail
  bool sampled = false;     ///< traced (one in kSampleEvery window requests)
  std::vector<ProcessId> targets;  ///< candidate proposers
  std::uint32_t cursor = 0;        ///< sink thread only, after publish
  std::shared_ptr<mrp::smr::MsgClientRequest> msg;  ///< released on reply
  std::atomic<std::int64_t> reply{0};
  std::atomic<ProcessId> replier{mrp::kNoProcess};  ///< whose reply won
  std::atomic<std::uint8_t> state{kPending};
};

struct OpenLoopConfig {
  ProcessId sink = 900;
  std::uint32_t session_base = 0;  ///< first smr worker index of the sessions
  std::uint32_t sessions = 65536;
  std::int64_t fail_after_ns = 1'000'000'000;
  double warmup_s = 0.5;
  double window_s = 3.0;
  std::uint32_t sample_every = 16;  ///< 0 = no sampling
};

class OpenLoop {
 public:
  OpenLoop(RequestSource& source, std::vector<std::int64_t> offsets,
           OpenLoopConfig config, std::uint64_t ops_seed);

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Generator body: replays the schedule from absolute time `t0`, sending
  /// through `sink_rt` (any thread but the sink's loop), then waits until
  /// every request is answered or failed.
  void generate(mrp::runtime::Runtime& sink_rt, std::int64_t t0);

  /// Sink-side handlers (the sink's loop thread).
  void on_reply(ProcessId from, const mrp::smr::MsgClientReply& reply,
                std::int64_t now);
  void on_busy(mrp::runtime::Node& sink, const mrp::smr::MsgClientBusy& busy);

  /// The sampled request (session, seq) names, or null — for the replicas'
  /// trace hooks (any thread).
  OpenRequest* find_sampled(mrp::smr::SessionId session, std::uint64_t seq);

  std::size_t size() const { return n_; }
  OpenRequest& at(std::size_t i) { return reqs_[i]; }
  std::size_t index_of(const OpenRequest* r) const {
    return static_cast<std::size_t>(r - reqs_.get());
  }
  int generator_tid() const { return gen_tid_.load(); }
  std::uint64_t busy_pushbacks() const { return busy_.load(); }
  std::uint64_t no_session() const { return no_session_; }
  /// Generator lateness (send minus due) of the measured window, in ns.
  const std::vector<std::int64_t>& lateness() const { return lateness_; }

 private:
  OpenRequest* lookup(mrp::smr::SessionId session, std::uint64_t seq);
  void expire(std::int64_t now);
  void release_slot(std::uint32_t slot);

  RequestSource& source_;
  std::vector<std::int64_t> offsets_;
  OpenLoopConfig config_;
  mrp::Rng ops_rng_;
  std::size_t n_;
  std::unique_ptr<OpenRequest[]> reqs_;

  // Session slots: slot -> request index + 1 (0 = none yet).
  std::unique_ptr<std::atomic<std::uint32_t>[]> slot_req_;
  std::vector<std::uint64_t> slot_seq_;  // generator only
  std::mutex free_mu_;
  std::vector<std::uint32_t> free_slots_;  // guarded by free_mu_

  std::vector<std::size_t> inflight_;  // generator only: FIFO by due time
  std::size_t inflight_head_ = 0;
  std::vector<std::int64_t> lateness_;
  std::atomic<int> gen_tid_{0};
  std::atomic<std::uint64_t> busy_{0};
  std::uint64_t no_session_ = 0;
};

/// The open loop's client process: routes replies and pushbacks to the
/// current OpenLoop (set by the harness before each phase).
class SinkNode final : public mrp::runtime::Node {
 public:
  using Node::Node;
  void set_loop(OpenLoop* loop) { loop_.store(loop); }
  void on_message(ProcessId from, const mrp::runtime::Message& m) override;

 private:
  std::atomic<OpenLoop*> loop_{nullptr};
};

/// Hosts an smr::ClientNode that is created on demand, so the closed loop
/// starts when the harness says so rather than at cluster start.
class ClosedHost final : public mrp::runtime::Node {
 public:
  using Node::Node;
  /// Call on this node's loop thread.
  void start_client(mrp::smr::ClientNode::Options options,
                    mrp::smr::ClientNode::NextFn next,
                    mrp::smr::ClientNode::DoneFn done);
  mrp::smr::ClientNode* client() { return client_.get(); }
  void on_message(ProcessId from, const mrp::runtime::Message& m) override;

 private:
  std::unique_ptr<mrp::smr::ClientNode> client_;
};

}  // namespace bench
