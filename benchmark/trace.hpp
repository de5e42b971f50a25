// Bench-side tracing: the hooks a traced run (--trace 1) switches on, all of
// them outside src/ and around calls into the layers' public functions.
//
//   * a WireCodec whose function pointers time net::wire_encode/decode
//     (the net layer's cost per KiB);
//   * per-replica execute timing and spans, fed by the bench replica's
//     apply_command override (service.hpp), split by operation class;
//   * per-replica merged-delivery timestamps from set_delivery_observer
//     (follower lag: first to last replica delivering one instance);
//   * request spans assembled from the open loop's timestamps.
//
// Counting is gated by the current phase, so totals cover exactly the
// window they are divided by.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.hpp"
#include "runtime/thread_runtime.hpp"

namespace bench {

using mrp::GroupId;
using mrp::InstanceId;

enum class Phase : int { kIdle = 0, kPeak = 1, kOpen = 2 };
/// The harness sets this at window boundaries; hooks read it.
extern std::atomic<int> g_phase;
inline bool in_phase(Phase p) {
  return g_phase.load(std::memory_order_relaxed) == static_cast<int>(p);
}

/// Codec wrapper totals over the peak window.
struct CodecTotals {
  std::uint64_t encode_ns = 0, encode_bytes = 0;
  std::uint64_t decode_ns = 0, decode_bytes = 0;
};
/// net::wire_codec() with timing around every encode and decode.
mrp::runtime::WireCodec timed_codec();
CodecTotals codec_totals();
void reset_codec_totals();

/// Number of operation classes a service may report execute times for.
constexpr int kOpClasses = 4;

struct ExecSpan {
  std::uint64_t request = 0;  ///< OpenLoop index
  std::int64_t start = 0, end = 0;
};
struct DeliveryStamp {
  GroupId group = -1;
  InstanceId instance = 0;
  std::int64_t t = 0;
};

/// Written only on one replica's loop thread; read after the cluster stops.
struct ReplicaTrace {
  std::uint64_t exec_count[kOpClasses] = {};
  std::int64_t exec_ns[kOpClasses] = {};
  std::vector<ExecSpan> spans;
  std::vector<DeliveryStamp> deliveries;
};

class Tracer {
 public:
  /// Creates the per-replica record; call before the cluster starts.
  ReplicaTrace* add_replica(mrp::ProcessId pid);
  /// The open loop whose sampled requests get spans (null between phases).
  void set_open(OpenLoop* loop) { open_.store(loop); }

  /// Hook for one executed command on a replica.
  void on_execute(ReplicaTrace& rt, int op_class,
                  mrp::smr::SessionId session, std::uint64_t seq,
                  std::int64_t start, std::int64_t end);
  /// Hook for one merged delivery on a replica.
  static void on_delivery(ReplicaTrace& rt, GroupId group,
                          InstanceId instance);

  const std::map<mrp::ProcessId, std::unique_ptr<ReplicaTrace>>& replicas()
      const {
    return replicas_;
  }

 private:
  std::map<mrp::ProcessId, std::unique_ptr<ReplicaTrace>> replicas_;
  std::atomic<OpenLoop*> open_{nullptr};
};

}  // namespace bench
