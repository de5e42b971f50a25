// BookkeeperLog — the repo's Apache Bookkeeper stand-in for the distributed
// log comparison (Figure 5).
//
// A client appends by sending the entry to every bookie of the ensemble and
// waiting for acknowledgements from a write quorum (2 of 3). Each bookie
// journals entries with an aggressive group-commit policy: entries
// accumulate until the batch reaches flush_bytes or has waited
// flush_interval, then one large synchronous device write covers the whole
// batch and all of its entries are acknowledged. Large chunks maximize disk
// utilization — and inflate latency, which is exactly the behaviour the
// paper observed.
#pragma once

#include <deque>
#include <vector>

#include "common/types.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"
#include "smr/client.hpp"
#include "smr/command.hpp"

namespace mrp::baselines {

struct BookieOptions {
  std::size_t flush_bytes = 256 * 1024;      // flush when batch reaches this
  TimeNs flush_interval = 20 * kMillisecond;  // ... or has waited this long
  int disk_index = 0;
};

class BookieNode : public runtime::Node {
 public:
  BookieNode(runtime::Runtime& rt, BookieOptions options, int bookie_index);

  void on_message(ProcessId from, const runtime::Message& m) override;

  std::uint64_t entries_journaled() const { return journaled_; }
  std::uint64_t flushes() const { return flushes_; }

 private:
  struct PendingEntry {
    smr::SessionId session = 0;
    std::uint64_t seq = 0;
    std::size_t bytes = 0;
  };

  void maybe_flush(bool timer_expired);
  void start_flush();

  BookieOptions options_;
  int bookie_index_;
  std::deque<PendingEntry> batch_;
  std::size_t batch_bytes_ = 0;
  TimeNs oldest_enqueued_ = 0;
  bool flushing_ = false;
  std::uint64_t journaled_ = 0;
  std::uint64_t flushes_ = 0;
};

struct BookkeeperOptions {
  std::size_t bookies = 3;
  std::size_t ack_quorum = 2;
  BookieOptions bookie;
  ProcessId first_pid = 450;
};

struct BookkeeperDeployment {
  std::vector<ProcessId> bookies;
  std::size_t ack_quorum = 2;
};

BookkeeperDeployment build_bookkeeper(runtime::Cluster& cluster,
                                      const BookkeeperOptions& options);

/// Append request: the entry goes to every bookie; completion when
/// ack_quorum distinct bookies acknowledged.
smr::Request bookkeeper_append(const BookkeeperDeployment& dep, Bytes data);

}  // namespace mrp::baselines
