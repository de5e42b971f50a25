// Deterministic discrete-event simulator.
//
// All protocol code in this repository is written as event-driven state
// machines scheduled on this loop. Determinism: events at equal timestamps
// fire in scheduling order (FIFO tie-break by sequence number), and all
// randomness flows from the seeded Rng, so a (topology, workload, seed)
// triple always produces the identical execution.
//
// Hot-path notes. The queue is two-tier:
//   * a flat 4-ary min-heap over (when, seq) for events below the horizon —
//     the active working set, so sifts stay shallow;
//   * an unsorted far buffer for events at or beyond the horizon (timeout
//     backlogs: most never come near the heap's root region). When the near
//     heap drains, the horizon advances by an adaptive delta and the far
//     buffer is partitioned — each event migrates O(lifetime/delta) times,
//     with delta tuned so migration batches stay in the hundreds.
// (when, seq) is a strict total order and the near tier always holds every
// event below the horizon, so extraction order is exactly the old
// priority_queue semantics. Heap entries are 24-byte PODs; the callables
// (small-buffer-optimized Tasks instead of std::functions) live in a stable
// side pool indexed by the entries, so a sift moves plain integers and
// scheduling/firing an event with a typical capture allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "runtime/task.hpp"

namespace mrp::sim {

class Simulator {
 public:
  /// `seed` roots every random draw of the run (network chaos, workloads,
  /// forked per-process Rngs): one seed, one execution.
  explicit Simulator(std::uint64_t seed = 1);

  /// Current simulated time (ns since the start of the run).
  TimeNs now() const { return now_; }
  /// The run's root random stream.
  Rng& rng() { return rng_; }

  /// Schedules fn at absolute time `when` (must be >= now()).
  void schedule_at(TimeNs when, runtime::Task fn);
  /// Schedules fn `delay` after now().
  void schedule_after(TimeNs delay, runtime::Task fn);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs all events with timestamp <= until (inclusive); leaves now()==until.
  void run_until(TimeNs until);
  void run_for(TimeNs duration) { run_until(now_ + duration); }

  /// Runs until the event queue drains or max_events fire (guards against
  /// livelock in tests). Returns the number of events executed.
  std::size_t run_until_idle(std::size_t max_events = 50'000'000);

  /// Events currently queued.
  std::size_t pending_events() const { return near_.size() + far_.size(); }
  /// Events executed since construction.
  std::uint64_t executed_events() const { return executed_; }

  /// Events executed by every Simulator in this process since start-up.
  /// Benches use this to report wall-clock engine speed without threading a
  /// counter through every Env they construct (see bench::BenchReporter).
  static std::uint64_t process_executed_events() { return process_executed_; }

 private:
  struct Event {
    TimeNs when;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };

  /// Strict total min-heap order: earlier time first, FIFO within a time.
  static bool before(const Event& a, const Event& b) {
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
  }
  void sift_up(std::size_t i);
  void pop_front();
  std::uint32_t acquire_slot(runtime::Task fn);
  /// Refills the near heap from the far buffer; false if nothing is queued.
  bool ensure_near();
  void advance_horizon();

  struct Slot {
    runtime::Task fn;
    std::uint32_t next_free = 0;
  };

  static constexpr std::uint32_t kNoSlot = ~0u;
  static constexpr TimeNs kMinDelta = 1 << 14;  // 16 us
  static constexpr TimeNs kMaxDelta = 1LL << 42;  // ~73 min

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Rng rng_;
  std::vector<Event> near_;   // 4-ary min-heap on (when, seq); when < horizon_
  std::vector<Event> far_;    // unsorted; when >= horizon_
  std::vector<Slot> slots_;   // parked callables; stable across sifts
  std::uint32_t free_head_ = kNoSlot;
  TimeNs horizon_ = 0;        // near/far partition line
  TimeNs delta_ = 1 << 20;    // horizon advance step (~1 ms), adaptive

  inline static std::uint64_t process_executed_ = 0;
};

}  // namespace mrp::sim
