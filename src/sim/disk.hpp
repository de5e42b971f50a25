// Simulated storage device. Models the two properties the paper's storage
// modes depend on: per-operation latency (seek/controller) and sequential
// bandwidth. Writes serialize on the device queue; a sync write's completion
// callback fires when the bytes are durable, an async write is buffered and
// the callback fires when the background flush finishes.
//
// Device state survives process crashes (the Env keeps Disk objects alive
// across crash/recover cycles); only the owning process's volatile state is
// lost.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "runtime/task.hpp"

namespace mrp::sim {

struct DiskParams {
  TimeNs op_latency = 0;        // fixed cost per write op (seek, controller)
  double bandwidth_Bps = 1e18;  // sequential transfer rate, bytes/sec

  /// 7200-RPM magnetic disk: ~8 ms positioning, ~150 MB/s sequential.
  static DiskParams hdd() { return {from_millis(8.0), 150e6}; }
  /// SATA SSD: ~120 us program latency, ~450 MB/s sequential.
  static DiskParams ssd() { return {from_micros(120.0), 450e6}; }
  /// In-memory "storage": free.
  static DiskParams memory() { return {0, 1e18}; }
};

class Disk {
 public:
  Disk(Simulator& sim, DiskParams params);

  /// Queues a write of `bytes`; `done` fires when the write is durable.
  void write(std::size_t bytes, runtime::Task done);

  /// Completion time a write issued now would see (for modelling async
  /// acknowledgement without a callback).
  TimeNs write_completion_time(std::size_t bytes) const;

  /// Current device queue backlog (time until an op issued now starts).
  TimeNs backlog() const;

  // --- fault injection ---

  /// Freezes the device for `duration` starting now: queued and future
  /// writes complete only after the stall window (plus any backlog) has
  /// passed. Models a controller hiccup / blocked device queue.
  void stall(TimeNs duration);

  /// Multiplies the service time (seek + transfer) of subsequent writes by
  /// `factor` (> 1 = degraded device, 1 = nominal). Already-queued writes
  /// are unaffected.
  void set_slowdown(double factor);

  /// Write operations issued so far.
  std::uint64_t writes() const { return writes_; }
  /// Bytes written so far.
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Stall windows injected so far.
  std::uint64_t stalls() const { return stalls_; }
  /// Current service-time multiplier (1.0 = nominal).
  double slowdown() const { return slowdown_; }
  const DiskParams& params() const { return params_; }

 private:
  TimeNs service_time(std::size_t bytes) const;

  Simulator& sim_;
  DiskParams params_;
  TimeNs free_at_ = 0;
  double slowdown_ = 1.0;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace mrp::sim
