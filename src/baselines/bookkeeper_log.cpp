#include "baselines/bookkeeper_log.hpp"

#include "common/check.hpp"

namespace mrp::baselines {

BookieNode::BookieNode(runtime::Runtime& rt, BookieOptions options,
                       int bookie_index)
    : runtime::Node(rt), options_(options), bookie_index_(bookie_index) {}

void BookieNode::on_message(ProcessId /*from*/, const runtime::Message& m) {
  if (m.kind() != smr::kMsgClientRequest) return;
  const auto& req = runtime::msg_cast<smr::MsgClientRequest>(m);
  if (batch_.empty()) {
    oldest_enqueued_ = now();
    // Arm the flush-interval timer for this batch.
    after(options_.flush_interval, [this] { maybe_flush(true); });
  }
  batch_.push_back(PendingEntry{req.command.session, req.command.seq,
                                req.command.op.size()});
  batch_bytes_ += req.command.op.size() + 24;
  maybe_flush(false);
}

void BookieNode::maybe_flush(bool timer_expired) {
  if (flushing_ || batch_.empty()) return;
  const bool full = batch_bytes_ >= options_.flush_bytes;
  const bool aged =
      timer_expired || now() - oldest_enqueued_ >= options_.flush_interval;
  if (full || aged) start_flush();
}

void BookieNode::start_flush() {
  MRP_CHECK(!flushing_);
  flushing_ = true;
  ++flushes_;
  auto acked = std::make_shared<std::deque<PendingEntry>>(std::move(batch_));
  const std::size_t bytes = batch_bytes_;
  batch_.clear();
  batch_bytes_ = 0;

  rt().durable_write(
      options_.disk_index, bytes, guard([this, acked] {
        journaled_ += acked->size();
        for (const PendingEntry& e : *acked) {
          auto reply = std::make_shared<smr::MsgClientReply>();
          reply->session = e.session;
          reply->seq = e.seq;
          reply->partition_tag = bookie_index_;
          send(smr::session_client(e.session), reply);
        }
        flushing_ = false;
        // Entries that arrived during the flush form the next batch.
        if (!batch_.empty()) {
          oldest_enqueued_ = now();
          after(options_.flush_interval, [this] { maybe_flush(true); });
          maybe_flush(false);
        }
      }));
}

BookkeeperDeployment build_bookkeeper(runtime::Cluster& cluster,
                                      const BookkeeperOptions& options) {
  MRP_CHECK(options.ack_quorum >= 1 && options.ack_quorum <= options.bookies);
  BookkeeperDeployment dep;
  dep.ack_quorum = options.ack_quorum;
  ProcessId pid = options.first_pid;
  for (std::size_t b = 0; b < options.bookies; ++b) {
    dep.bookies.push_back(pid);
    cluster.add_node(pid, runtime::factory_of<BookieNode>(
                              options.bookie, static_cast<int>(b)));
    ++pid;
  }
  return dep;
}

smr::Request bookkeeper_append(const BookkeeperDeployment& dep, Bytes data) {
  smr::Request req;
  for (ProcessId b : dep.bookies) {
    req.sends.push_back(smr::Request::Send{-1, {b}});
  }
  req.op = std::move(data);
  req.expected_partitions = dep.ack_quorum;
  return req;
}

}  // namespace mrp::baselines
