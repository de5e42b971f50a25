// Acceptor stable storage — the repo's stand-in for the paper's Berkeley DB.
//
// An acceptor must log its Phase 1B/2B responses before sending them
// (Section 5.1), so that after a crash it can serve retransmission requests
// for every non-trimmed instance it participated in. The log supports the
// paper's five storage modes via the combination of WriteMode and the
// simulated disk's parameters (memory / SSD / HDD):
//   * Sync  — the reply callback fires only when the record is durable;
//             batching disabled means one device write per record.
//   * Async — the reply callback fires immediately; the write is queued on
//             the device in the background (buffered, like BDB deferred
//             writes). A crash may lose the tail, which Paxos tolerates as
//             long as the process rejoins as a "new" acceptor... in this
//             implementation the simulated device persists everything that
//             was queued, mirroring the paper's deployment where async mode
//             still writes through the OS page cache.
//   * Memory — pre-allocated off-heap buffers; nothing written to the device.
//
// Durable contents survive crash/recover via Env::stable storage. Records
// live in an InstanceMap (flat window over [trimmed_to, highest]) rather
// than a tree: instance ids are dense, trimming pops the window's front.
#pragma once

#include <optional>
#include <string>

#include "common/instance_map.hpp"
#include "common/types.hpp"
#include "paxos/paxos.hpp"
#include "runtime/runtime.hpp"

namespace mrp::storage {

enum class WriteMode { Memory, Async, Sync };

std::string to_string(WriteMode m);

class AcceptorLog {
 public:
  /// Binds to the durable slot `ring/<ring>/acceptor_log` of the hosting
  /// runtime's process. The same slot is picked up again after a crash.
  AcceptorLog(runtime::Runtime& rt, GroupId ring, WriteMode mode,
              int disk_index = 0);

  WriteMode mode() const { return mode_; }

  // --- promises (multi-instance: one promised round for all instances) ---
  Round promised() const;
  /// Persists a promise; `done` fires when durable (per mode).
  void promise(Round r, runtime::Task done);

  // --- accepted records ---
  /// Persists an accepted (instance, record); `done` fires per mode.
  /// Overwrites any record with a lower vround (Paxos re-proposal).
  void accept(InstanceId instance, const paxos::LogRecord& record,
              runtime::Task done);

  /// Marks [instance, instance+count) decided (decision observed on ring).
  void mark_decided(InstanceId instance);

  std::optional<paxos::LogRecord> get(InstanceId instance) const;

  /// All records with instance in [lo, hi).
  std::vector<std::pair<InstanceId, paxos::LogRecord>> range(
      InstanceId lo, InstanceId hi) const;

  /// Promises for all non-trimmed instances >= floor (Phase 1B content).
  std::vector<paxos::Promise> promises_from(InstanceId floor) const;

  /// Removes all records with instance < upto (Section 5.2 trimming).
  void trim(InstanceId upto);

  /// First instance not removed by trimming.
  InstanceId trimmed_to() const;

  /// Highest instance with a record, or nullopt if empty.
  std::optional<InstanceId> highest_instance() const;

  std::size_t record_count() const;

 private:
  struct Durable {
    Round promised = 0;
    InstanceId trimmed_to = 0;
    InstanceMap<paxos::LogRecord> records;
  };

  static std::size_t record_wire_size(const paxos::LogRecord& r);
  void persist(std::size_t bytes, runtime::Task done);

  runtime::Runtime& rt_;
  WriteMode mode_;
  int disk_index_;
  Durable& d_;
};

}  // namespace mrp::storage
