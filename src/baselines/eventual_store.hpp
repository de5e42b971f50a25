// EventualStore — the repo's Cassandra stand-in for the YCSB comparison
// (Figure 4).
//
// Partitioned key-value store with replication factor R and consistency
// level ONE: the coordinator replica applies a write locally, streams it to
// its peers asynchronously, and acknowledges immediately. Last-writer-wins
// timestamps resolve conflicts; there is no ordering protocol, which is
// exactly why it is cheap — and why concurrent multi-partition operations
// are not mutually ordered.
//
// It reuses MRP-Store's operation encoding, so the same YCSB driver runs
// against both systems.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mrpstore/client.hpp"
#include "mrpstore/store.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"
#include "smr/client.hpp"

namespace mrp::baselines {

constexpr int kMsgEvReplicate = 500;

struct MsgEvReplicate final : runtime::Message {
  std::string key;
  Bytes value;
  TimeNs ts = 0;
  ProcessId writer = kNoProcess;
  bool tombstone = false;
  int kind() const override { return kMsgEvReplicate; }
  std::size_t wire_size() const override {
    return 32 + key.size() + value.size();
  }
};

class EventualNode : public runtime::Node {
 public:
  /// scan_entry_cost: CPU charged per entry returned by a range scan
  /// (models SSTable merge overhead; the paper's Workload E pain point).
  EventualNode(runtime::Runtime& rt, std::vector<ProcessId> peers,
               int partition_tag, TimeNs scan_entry_cost = 0);

  void on_message(ProcessId from, const runtime::Message& m) override;

  std::size_t size() const { return data_.size(); }
  void preload(std::string key, Bytes value);
  std::uint64_t digest() const;

 private:
  struct Entry {
    Bytes value;
    TimeNs ts = 0;
    ProcessId writer = kNoProcess;
    bool tombstone = false;
  };

  void apply_lww(const std::string& key, Entry entry);
  Bytes execute(const Bytes& op_bytes);

  std::vector<ProcessId> peers_;
  int partition_tag_;
  TimeNs scan_entry_cost_;
  std::map<std::string, Entry> data_;
};

struct EventualOptions {
  std::size_t partitions = 3;
  std::size_t replicas_per_partition = 3;
  std::string partitioner;  // encoded; default hash
  ProcessId first_pid = 400;
  TimeNs scan_entry_cost = 0;
};

struct EventualDeployment {
  std::vector<std::vector<ProcessId>> replicas;  // per partition
  std::shared_ptr<mrpstore::Partitioner> partitioner;
};

EventualDeployment build_eventual_store(runtime::Cluster& cluster,
                                        const EventualOptions& options);

/// Builds ClientNode requests against an EventualDeployment (same surface as
/// mrpstore::StoreClient so benches can swap systems).
class EventualClient {
 public:
  explicit EventualClient(EventualDeployment deployment);

  smr::Request read(const std::string& key) const;
  smr::Request update(const std::string& key, Bytes value) const;
  smr::Request insert(const std::string& key, Bytes value) const;
  smr::Request remove(const std::string& key) const;
  smr::Request scan(const std::string& lo, const std::string& hi,
                    std::uint32_t limit_per_partition = 0) const;

 private:
  smr::Request single_key(mrpstore::Op op) const;

  EventualDeployment deployment_;
};

}  // namespace mrp::baselines
