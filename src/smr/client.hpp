// Closed-loop service client.
//
// A ClientNode hosts `workers` independent closed-loop sessions (the paper's
// "client threads"): each worker asks the workload for its next request,
// sends one command per fan-out group, waits until it has a reply from the
// expected number of distinct partitions, reports the completion, and
// immediately issues the next request. One replica per addressed partition
// answers each command — the first member of the partition after the
// ring's quorum-crossing acceptor (smr/replica.hpp) — or every replica
// when it cannot tell who that is; extra replies (cached answers to a
// retry) are dropped.
//
// Sessions: a worker has one session per destination group set it
// addresses, numbered 1, 2, 3, ... (see make_session). Every request of a
// session goes to the same groups, so every replica serving the session
// delivers all of its seqs and its dedup floor advances; a replica's dedup
// record stays O(1) per session instead of growing with history.
//
// Retries: if a send has no reply after retry_timeout, the same command
// (same session/seq — replicas deduplicate) is re-sent to the next target
// replica in the send's target list; subsequent retries of the same request
// back off with deterministic jitter (common/backoff.hpp). The first checks
// of in-flight requests share one deadline-ordered list and one runtime
// timer, so a request answered in time leaves no timer behind.
//
// Flow control: `max_outstanding` caps the requests in flight across all
// workers — a worker that wants to issue while the window is full parks
// until a slot frees. A MsgClientBusy pushback (proposer admission window
// full) re-sends that command after jittered exponential backoff, rotated
// to the next candidate proposer.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/backoff.hpp"
#include "common/histogram.hpp"
#include "common/types.hpp"
#include "runtime/node.hpp"
#include "smr/command.hpp"

namespace mrp::sim {
class Env;
}

namespace mrp::smr {

struct Request {
  struct Send {
    GroupId group = -1;
    std::vector<ProcessId> targets;  // candidate proposers (rotated on retry)
  };
  std::vector<Send> sends;           // one command per entry, same op bytes
  Bytes op;
  std::size_t expected_partitions = 1;  // distinct partition_tags to await
  /// Atomic multi-group multicast: every send's command carries the full
  /// (sorted) set of the request's groups, so replicas gather the copies by
  /// (session, seq) and execute the command exactly once, at the merged
  /// position of the last subscribed addressed group to deliver. false =
  /// the sends are independent single-group commands (scan fan-out).
  bool atomic = false;

  /// Convenience: single-group request.
  static Request single(GroupId group, std::vector<ProcessId> targets,
                        Bytes op);

  /// The sorted, deduplicated set of groups this request addresses.
  std::vector<GroupId> group_set() const;
};

struct Completion {
  std::uint32_t worker = 0;
  Bytes op;
  std::map<int, Bytes> results;  // partition_tag -> first reply
  TimeNs issued_at = 0;
  TimeNs latency = 0;
};

class ClientNode : public runtime::Node {
 public:
  /// Returns the next request for `worker`, or nullopt to stop that worker.
  using NextFn = std::function<std::optional<Request>(std::uint32_t worker)>;
  using DoneFn = std::function<void(const Completion&)>;
  /// Inspects a finished request before it is reported: returning a Request
  /// re-issues it (fresh seq, original issue time kept) instead of
  /// completing — the stale-routing retry path: a service layer detects a
  /// "wrong partition" reply, refreshes its schema, and re-routes the same
  /// operation.
  using RerouteFn = std::function<std::optional<Request>(const Completion&)>;

  struct Options {
    std::uint32_t workers = 1;
    TimeNs retry_timeout = 2 * kSecond;
    /// Delay before the first request of each worker (staggers start-up).
    TimeNs start_delay = 0;
    /// Semi-open loop: each worker issues at most one request per
    /// think_time (it waits out the remainder after a fast completion), so
    /// the offered load stays ~workers/think_time while the system keeps
    /// up. 0 = pure closed loop.
    TimeNs think_time = 0;
    /// Outstanding-request window across all workers: a worker that wants
    /// to issue while this many requests are active parks until a slot
    /// frees. 0 = no global cap (each worker still has at most one
    /// outstanding request).
    std::uint32_t max_outstanding = 0;
    /// Backoff for MsgClientBusy pushback re-sends and reroute re-issues
    /// (attempt-indexed, jittered from the run's seeded rng).
    BackoffParams busy_backoff{2 * kMillisecond, kSecond, 0.5};

    /// Flow-controlled client options: `workers` sessions sharing an
    /// outstanding-request window of `max_outstanding` commands (0 =
    /// uncapped). The service clients (StoreClient, DLogClient) expose
    /// this as their `client_options`.
    static Options flow(std::uint32_t workers, std::uint32_t max_outstanding,
                        TimeNs retry_timeout = 2 * kSecond) {
      Options o;
      o.workers = workers;
      o.retry_timeout = retry_timeout;
      o.max_outstanding = max_outstanding;
      return o;
    }
  };

  ClientNode(runtime::Runtime& rt, Options options, NextFn next,
             DoneFn done);

  /// Sim convenience: binds to the Env's runtime adapter for `id` (defined
  /// in smr_sim.cpp).
  ClientNode(sim::Env& env, ProcessId id, Options options, NextFn next,
             DoneFn done);

  /// Installs the stale-routing retry hook (see RerouteFn).
  void set_reroute(RerouteFn fn) { reroute_ = std::move(fn); }

  void on_start() override;
  void on_message(ProcessId from, const runtime::Message& m) override;

  std::uint64_t completed() const { return completed_; }
  std::uint64_t retries() const { return retries_; }
  /// Requests re-issued by the reroute hook (schema refreshes).
  std::uint64_t reroutes() const { return reroutes_; }
  /// MsgClientBusy pushbacks received (per-command, before backoff re-send).
  std::uint64_t busy_pushbacks() const { return busy_pushbacks_; }
  /// Requests currently in flight (active outstanding entries).
  std::uint32_t outstanding() const { return active_; }
  /// Workers currently parked waiting for an outstanding-window slot.
  std::size_t parked() const { return parked_.size(); }
  const Histogram& latency_histogram() const { return latency_; }
  Histogram& latency_histogram() { return latency_; }

  /// Stops issuing new requests (outstanding ones finish silently).
  void stop() { stopped_ = true; }

 private:
  static constexpr std::uint32_t kNoWorker =
      std::numeric_limits<std::uint32_t>::max();

  struct Outstanding {
    Request request;
    std::vector<GroupId> groups;  // request.group_set() of a multi-send request
    SessionId session = 0;  // (client, destination set, worker)
    std::uint64_t seq = 0;  // same seq for all sends of this request
    TimeNs issued_at = 0;
    std::map<int, Bytes> results;
    std::vector<std::size_t> target_cursor;  // per send
    bool active = false;
    bool reserved = false;              // window slot held across a reroute
    std::uint32_t busy_attempts = 0;    // MsgClientBusy pushbacks, this op
    std::uint32_t retry_attempts = 0;   // timeout retries, this request
    std::uint32_t reroute_attempts = 0; // reroute re-issues, this op
    /// Last seq issued per destination-set index (this worker's sessions).
    std::vector<std::uint64_t> session_seq;
    // Links in the first-check deadline list (see first_check_head_).
    TimeNs deadline = 0;
    std::uint32_t prev = kNoWorker;
    std::uint32_t next = kNoWorker;
    bool queued = false;
  };

  void issue_next(std::uint32_t worker);
  void issue_request(std::uint32_t worker, Request req, TimeNs issued_at);
  std::uint32_t set_index(Outstanding& o);
  void send_command(std::uint32_t worker, std::size_t send_index);
  bool is_current(std::uint32_t worker, SessionId session,
                  std::uint64_t seq) const;
  void retry(std::uint32_t worker);
  void queue_first_check(std::uint32_t worker);
  void unqueue_first_check(std::uint32_t worker);
  void on_first_check_timer();
  void handle_busy(const MsgClientBusy& busy);
  void finish(std::uint32_t worker);
  void maybe_unpark();

  Options options_;
  NextFn next_;
  DoneFn done_;
  RerouteFn reroute_;
  std::vector<Outstanding> workers_;
  std::deque<std::uint32_t> parked_;  // workers waiting for a window slot
  std::uint32_t active_ = 0;
  // Destination-set indices, assigned in first-use order (deterministic).
  std::unordered_map<GroupId, std::uint32_t> single_sets_;
  std::map<std::vector<GroupId>, std::uint32_t> multi_sets_;
  // First retry checks of in-flight requests, in deadline order: deadlines
  // are issue time + retry_timeout, so appending keeps the list sorted. One
  // runtime timer is armed at or before the head's deadline.
  std::uint32_t first_check_head_ = kNoWorker;
  std::uint32_t first_check_tail_ = kNoWorker;
  bool first_check_timer_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t reroutes_ = 0;
  std::uint64_t busy_pushbacks_ = 0;
  bool stopped_ = false;
  Histogram latency_;
};

}  // namespace mrp::smr
