// The simulation environment: owns the event loop, the network, every
// process, per-process CPU accounting, disks, and crash-surviving stable
// storage. This is the only stateful singleton a deployment needs; tests and
// benches construct one Env per experiment.
//
// Processes are runtime::Node actors built as T(Runtime&, args...): the Env
// implements runtime::Cluster and hands each factory the process's
// SimRuntime adapter (runtime_for), so the same protocol objects, service
// builders and probes also run on the thread/socket backend.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"
#include "runtime/node.hpp"
#include "runtime/runtime.hpp"
#include "runtime/task.hpp"
#include "sim/disk.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace mrp::sim {

class SimRuntime;

/// CPU service-time model for one process: handling a delivered message
/// costs per_message + per_byte_ns * wire_size. While a process is busy,
/// further deliveries queue (single-lane, run-to-completion).
struct CpuParams {
  TimeNs per_message = 0;
  double per_byte_ns = 0.0;
};

class Env final : public runtime::Cluster {
 public:
  /// `seed` flows to the Simulator and roots all randomness of the run.
  explicit Env(std::uint64_t seed = 1);
  ~Env() override;

  /// The event loop.
  Simulator& sim() { return sim_; }
  /// The simulated network (links, sites, partitions, injected faults).
  Network& net() { return net_; }
  /// Current simulated time.
  TimeNs now() const { return sim_.now(); }
  /// The run's root random stream.
  Rng& rng() { return sim_.rng(); }

  /// Registers and starts a process. The factory is retained and re-run on
  /// recover().
  void add_node(ProcessId id, runtime::NodeFactory factory) override;

  /// Convenience: spawn<T>(id, args...) constructs T(runtime_for(id),
  /// args...), capturing copies of args for reconstruction at recovery.
  /// Returns the live instance.
  template <class T, class... Args>
  T* spawn(ProcessId id, Args... args) {
    add_node(id, runtime::factory_of<T>(std::move(args)...));
    return static_cast<T*>(process(id));
  }

  /// Runs fn on the live instance of `id`, inline; aborts if it is down.
  void call(ProcessId id,
            const std::function<void(runtime::Node*)>& fn) override;

  /// The live instance for `id` (null while crashed).
  runtime::Node* process(ProcessId id);
  /// The live instance downcast to T; aborts on type mismatch.
  template <class T>
  T* process_as(ProcessId id) {
    auto* p = dynamic_cast<T*>(process(id));
    MRP_CHECK_MSG(p != nullptr, "process type mismatch");
    return p;
  }

  /// The per-process runtime adapter (stable across crash/recover): the
  /// Runtime every node factory of `id` receives.
  runtime::Runtime& runtime_for(ProcessId id);

  /// Runtime adapter for an oracle actor (negative id, e.g. the registry's
  /// kRegistrySender): unguarded timers, faults bypassed, no CPU lane.
  runtime::Runtime& oracle_runtime(ProcessId id);

  /// True while the process is up (between add_node/recover and crash).
  bool is_alive(ProcessId id) const;
  /// Incarnation counter: starts at 1, +1 on every crash and every recover
  /// (odd = alive). Guards (make_guard) and the fault layer's delivery
  /// observers use it to tell incarnations apart.
  std::uint64_t epoch(ProcessId id) const;
  /// Ids of every registered process, crashed or not.
  std::vector<ProcessId> all_processes() const;

  /// Crashes a process: volatile state destroyed, queued messages dropped,
  /// timers cancelled. Disks and stable() storage survive.
  void crash(ProcessId id);

  /// Re-runs the factory for a crashed process and starts it.
  void recover(ProcessId id);

  // --- CPU model & accounting ---
  /// Installs the per-message/per-byte CPU cost model for one process.
  void set_cpu(ProcessId id, CpuParams p);
  /// Accumulated message-handling CPU time.
  TimeNs cpu_busy(ProcessId id) const;
  /// Accumulated background-lane CPU time (GC, flushers).
  TimeNs cpu_background(ProcessId id) const;
  /// Zeroes both counters for every process (benches call this after warmup).
  void reset_cpu_accounting();

  // --- disks (survive crashes) ---
  /// The process's disk `index`, created on first use (in-memory params).
  Disk& disk(ProcessId id, int index = 0);
  /// Replaces the device with fresh parameters (resets queue + statistics);
  /// call at deployment setup time.
  void set_disk_params(ProcessId id, int index, DiskParams p);

  // --- stable storage (survives crashes) ---
  /// Typed named slot tied to a process; default-constructed on first use.
  /// The slot remembers the type it was created with: reusing a key with a
  /// different T would otherwise static_cast onto someone else's object —
  /// silent undefined behaviour — so it aborts loudly instead.
  template <class T>
  T& stable(ProcessId id, const std::string& key) {
    runtime::StableSlot& slot = stable_slot(id, key);
    if (!slot.ptr) {
      slot.ptr = std::shared_ptr<void>(new T(), [](void* p) {
        delete static_cast<T*>(p);
      });
      slot.type = std::type_index(typeid(T));
    }
    MRP_CHECK_MSG(slot.type == std::type_index(typeid(T)),
                  "Env::stable slot reused with a different type");
    return *static_cast<T*>(slot.ptr.get());
  }

  /// The raw crash-surviving cell behind stable<T> (used by SimRuntime).
  runtime::StableSlot& stable_slot(ProcessId id, const std::string& key) {
    return stable_[{id, key}];
  }

  // --- used by SimRuntime ---
  /// Sends m from `from` to `to` (loopback skips the network but still
  /// queues through the receiver's CPU lane). Negative `from` ids mark
  /// oracle senders (the registry) whose traffic bypasses injected faults.
  void send_from(ProcessId from, ProcessId to, runtime::MessagePtr m);
  /// Timer that silently cancels if the process crashes (epoch changes).
  void schedule_guarded(ProcessId pid, TimeNs delay, runtime::Task fn);
  /// Wraps fn into a callback that no-ops once the process's epoch moves on.
  runtime::Task make_guard(ProcessId pid, runtime::Task fn);
  /// Adds CPU cost to pid's serial message-handling lane.
  void charge(ProcessId pid, TimeNs cpu);
  /// Adds CPU cost on pid's background lane (metrics only).
  void charge_background(ProcessId pid, TimeNs cpu);

 private:
  struct ProcRecord {
    std::unique_ptr<runtime::Node> proc;
    runtime::NodeFactory factory;
    bool alive = false;
    std::uint64_t epoch = 0;
    CpuParams cpu;
    std::deque<std::pair<ProcessId, runtime::MessagePtr>> queue;
    bool running = false;  // a run_one event is scheduled
    TimeNs busy_until = 0;
    TimeNs busy_ns = 0;
    TimeNs background_ns = 0;
  };

  void deliver(ProcessId from, ProcessId to, runtime::MessagePtr msg);
  void pump(ProcessId pid);
  void run_one(ProcessId pid);
  ProcRecord& rec(ProcessId id);
  const ProcRecord& rec(ProcessId id) const;

  Simulator sim_;
  Network net_;
  std::map<ProcessId, ProcRecord> records_;
  std::map<std::pair<ProcessId, int>, std::unique_ptr<Disk>> disks_;
  std::map<std::pair<ProcessId, std::string>, runtime::StableSlot> stable_;
  // Adapters live for the whole run (protocol objects hold references);
  // oracle adapters are keyed separately so a (hypothetical) process with a
  // negative id cannot collide with an oracle.
  std::map<ProcessId, std::unique_ptr<SimRuntime>> adapters_;
  std::map<ProcessId, std::unique_ptr<SimRuntime>> oracle_adapters_;

  ProcessId current_pid_ = kNoProcess;
  TimeNs current_charge_ = 0;
};

}  // namespace mrp::sim
