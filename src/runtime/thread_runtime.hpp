// ThreadRuntime — the real-hardware backend of runtime::Runtime.
//
// One event-loop thread per process over nonblocking loopback TCP:
//   * transport — every cross-process send is serialized with the zero-copy
//     codec (net/wire.cpp supplies the per-kind encoders) onto a
//     length-prefixed frame [u32 len][u32 from][u32 to][u32 kind][body] and
//     written to a real socket; each process owns a listener and lazily
//     connects to peers. Delivery is at-most-once: a broken connection
//     drops queued frames, exactly the simulated network's contract.
//   * encode-once — the body encoding is cached on the Message
//     (Message::encoded_body), so a broadcast or ring forward of one
//     message object serializes once; outbound queues hold Frame records
//     (16-byte header + shared body buffer) rather than flat byte copies.
//   * timers — per-loop steady-clock min-heap with lazy cancellation;
//     now() is nanoseconds since the cluster epoch on std::chrono::
//     steady_clock (immune to NTP jumps).
//   * readiness — edge-triggered epoll(7) with a persistent interest set
//     (Linux-only, like the rest of this backend's CI targets). Sends from
//     the loop's own thread enqueue frames directly with no locking or
//     wakeup; sends and timers posted from other threads (the shared
//     registry oracle) stage under a mutex and wake the loop through a
//     level-triggered pipe, with wakes coalesced by an atomic flag so a
//     burst of cross-thread sends costs one pipe write.
//   * flush batching — frames queue on their connection and flush at the
//     end of each event batch via one scatter-gather sendmsg per
//     connection; a connection crossing `flush_hwm_bytes` flushes
//     immediately mid-batch, and `max_conn_pending_bytes` bounds the queue
//     (frames beyond the cap are dropped and counted — at-most-once
//     delivery permits it, and it keeps a stalled reader from wedging the
//     sender). TransportStats surfaces syscalls, flush sizes, wake
//     coalescing, drops, and the pending-bytes high-water mark.
//   * stable slots — trivially-copyable types are mmap'd from files under
//     the cluster storage dir (crash-surviving like Env::stable); other
//     types live on the heap. durable_write appends to a per-process WAL
//     file and fsyncs.
//
// ThreadCluster wires a set of ThreadRuntimes (plus optional remote peers
// served by other OS processes, for mrpd/mrpctl) into one deployment.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codec/codec.hpp"
#include "common/types.hpp"
#include "runtime/cluster.hpp"
#include "runtime/node.hpp"
#include "runtime/runtime.hpp"

namespace mrp::runtime {

/// Serializer/deserializer hooks for TCP transport. Implemented by
/// net/wire.cpp so this layer stays protocol-agnostic.
struct WireCodec {
  /// Appends the body encoding of m to w. Returns false for unknown kinds.
  bool (*encode)(codec::Writer& w, const Message& m) = nullptr;
  /// Decodes a body of `kind`; returns null for unknown kinds.
  MessagePtr (*decode)(int kind, codec::Reader& r) = nullptr;
};

struct ThreadClusterOptions {
  /// Roots every per-process Rng (forked per pid, deterministic draws —
  /// though cross-process interleaving is real and nondeterministic).
  std::uint64_t seed = 1;
  /// Directory for file-backed stable slots and durable writes; empty =
  /// everything stays in memory (no crash survival, fine for benches).
  std::string storage_dir;
  WireCodec codec;
  /// Per-connection cap on queued-but-unflushed bytes. Frames that would
  /// exceed it are dropped (at-most-once delivery) so a stalled reader
  /// cannot grow the sender without bound; TransportStats counts the drops.
  std::size_t max_conn_pending_bytes = 64u << 20;
  /// A connection whose queue crosses this mark flushes immediately rather
  /// than waiting for the end of the event batch (bounds burst latency and
  /// buffer growth while still batching small frames).
  std::size_t flush_hwm_bytes = 256u << 10;
};

/// Counters the event loop keeps about its own I/O behaviour — the
/// QueueStats of the transport layer. Snapshot via
/// ThreadRuntime::transport_stats() on the loop thread (ThreadCluster::call)
/// or after the loop has been joined; benches diff two snapshots across the
/// measurement window and derive syscalls/sec, frames per flush, bytes per
/// flush, and the wake coalesce ratio.
struct TransportStats {
  std::uint64_t frames_sent = 0;      ///< frames accepted into a send queue
  std::uint64_t frames_dropped = 0;   ///< dropped at max_conn_pending_bytes
  std::uint64_t frames_received = 0;  ///< frames dispatched to the node
  std::uint64_t bodies_encoded = 0;   ///< encode-once cache misses
  std::uint64_t flushes = 0;          ///< sendmsg calls that moved bytes
  std::uint64_t flushed_bytes = 0;    ///< bytes those calls moved
  std::uint64_t flushed_frames = 0;   ///< frames fully written
  std::uint64_t epoll_waits = 0;      ///< epoll_wait calls
  std::uint64_t syscalls = 0;         ///< epoll_wait+sendmsg+recv+accept+pipe
  std::uint64_t wakes_requested = 0;  ///< cross-thread wake() calls
  std::uint64_t wakes_written = 0;    ///< wake pipe writes actually issued
  std::uint64_t pending_bytes_hwm = 0;  ///< max queued bytes on any conn

  /// Aggregation across processes (benches sum the cluster).
  TransportStats& operator+=(const TransportStats& o) {
    frames_sent += o.frames_sent;
    frames_dropped += o.frames_dropped;
    frames_received += o.frames_received;
    bodies_encoded += o.bodies_encoded;
    flushes += o.flushes;
    flushed_bytes += o.flushed_bytes;
    flushed_frames += o.flushed_frames;
    epoll_waits += o.epoll_waits;
    syscalls += o.syscalls;
    wakes_requested += o.wakes_requested;
    wakes_written += o.wakes_written;
    pending_bytes_hwm = std::max(pending_bytes_hwm, o.pending_bytes_hwm);
    return *this;
  }
};

class ThreadCluster;

/// The event loop's epoll_wait timeout for a timer due in `delta` ns: whole
/// milliseconds rounded up (a timer never fires early and at most 1 ms
/// late), 0 when already due, and at most 200 ms so the loop re-checks its
/// stop flag.
int wait_timeout_ms(TimeNs delta);

class ThreadRuntime final : public Runtime {
 public:
  ~ThreadRuntime() override;

  ProcessId id() const override { return pid_; }
  TimeNs now() const override;
  Rng& rng() override { return rng_; }
  void send(ProcessId to, MessagePtr m) override;
  TimerId schedule(TimeNs delay, Task fn) override;
  void cancel(TimerId timer) override;
  Task guard(Task fn) override;
  void charge(TimeNs) override {}  // the cost is real on this backend
  void charge_background(TimeNs) override {}
  bool peer_alive(ProcessId p) const override;
  StableSlot& stable_record(const std::string& key) override;
  void durable_write(int disk_index, std::size_t bytes, Task done) override;

  /// Loopback port of this process's listener.
  std::uint16_t port() const { return port_; }
  /// The hosted node (loop thread only; null for oracles).
  Node* node() { return node_.get(); }

  /// Snapshot of the loop's I/O counters. Call on the loop thread
  /// (ThreadCluster::call) or after the loop has been joined.
  TransportStats transport_stats() const;

 protected:
  void* stable_map(const std::string& key, std::size_t size,
                   bool* fresh) override;

 private:
  friend class ThreadCluster;

  ThreadRuntime(ThreadCluster& cluster, ProcessId pid, std::uint16_t port);

  struct TimerEntry {
    TimeNs deadline;
    TimerId id;
    bool operator>(const TimerEntry& o) const {
      return deadline > o.deadline || (deadline == o.deadline && id > o.id);
    }
  };

  /// Tags epoll events carry in data.ptr: the first int of the pointed-to
  /// object says what it is (the two singleton fds point at plain ints).
  enum IoTag : int { kTagWake = 0, kTagListen, kTagIn, kTagOut };

  /// One queued frame: fixed wire header + shared body buffer (the
  /// Message's encode-once cache, or a one-off buffer for self-owned
  /// encodings). Flushing scatter-gathers header and body directly from
  /// here — the bytes are never copied into a flat backlog.
  struct Frame {
    std::array<std::uint8_t, 16> header;
    std::shared_ptr<const std::vector<std::uint8_t>> body;
    std::size_t size() const { return header.size() + body->size(); }
  };

  struct Outbound {
    int tag = kTagOut;  // must stay first (epoll dispatch reads it)
    ProcessId to = 0;
    int fd = -1;
    bool connecting = false;
    bool dirty = false;  // queued on dirty_ for the batch-end flush
    std::deque<Frame> q;
    std::size_t front_off = 0;      // bytes of q.front() already written
    std::size_t pending_bytes = 0;  // total unwritten bytes across q
  };
  struct Inbound {
    int tag = kTagIn;  // must stay first (epoll dispatch reads it)
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };

  void loop();
  void wake();
  void drain_posted(std::vector<Task>& out);
  void drain_local_posted();
  void adopt_staged_frames();
  void fire_due_timers();
  TimeNs next_deadline();  // kNoDeadline if none
  void drain_wake_pipe();
  void accept_ready();
  void read_ready(Inbound& in);
  void dispatch_frames(Inbound& in);
  void out_ready(Outbound& ob, std::uint32_t events);
  void enqueue_frame(Outbound& ob, Frame f);
  void flush_dirty();
  void flush_one(Outbound& ob);
  bool ensure_connected(Outbound& ob);  // false while not yet writable
  void close_outbound(Outbound& ob);
  void epoll_add(int fd, std::uint32_t events, void* tag);
  Frame make_frame(ProcessId to, const Message& m,
                   std::shared_ptr<const std::vector<std::uint8_t>> body);
  bool on_loop_thread() const {
    return std::this_thread::get_id() ==
           loop_tid_.load(std::memory_order_acquire);
  }
  int durable_fd(int disk_index);
  std::string storage_path(const std::string& leaf) const;

  static constexpr TimeNs kNoDeadline =
      std::numeric_limits<TimeNs>::max();

  ThreadCluster& cluster_;
  ProcessId pid_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int wake_r_ = -1;
  int wake_w_ = -1;
  int epoll_fd_ = -1;
  int wake_tag_ = kTagWake;    // epoll data.ptr targets for the two
  int listen_tag_ = kTagListen;  // singleton fds
  Rng rng_;

  NodeFactory factory_;  // null for oracle
  std::unique_ptr<Node> node_;  // loop thread only
  std::thread thread_;
  std::atomic<bool> stop_{false};
  // Killed via ThreadCluster::stop_local: the loop is joined and the peer
  // reads as dead (has_peer/port_of) without mutating the cluster maps, so
  // concurrent readers on other loop threads stay safe.
  std::atomic<bool> killed_{false};
  std::atomic<std::thread::id> loop_tid_{};

  // Wake coalescing: a cross-thread producer writes the pipe only when it
  // flips this false→true; the loop clears it at the top of each iteration
  // before draining staged work (see loop() for the ordering argument).
  std::atomic<bool> wake_pending_{false};
  std::atomic<std::uint64_t> wakes_requested_{0};
  std::atomic<std::uint64_t> wakes_written_{0};
  std::atomic<std::uint64_t> bodies_encoded_{0};

  // Cross-thread staging (sends/timers/posts from any thread).
  std::mutex mu_;
  std::vector<Task> posted_;
  std::vector<std::pair<ProcessId, Frame>> staged_frames_;
  // Lets the loop's send fast path adopt staged frames before enqueueing
  // its own, preserving per-sender FIFO order without taking the mutex.
  std::atomic<bool> has_staged_{false};
  std::vector<TimerEntry> timer_heap_;  // min-heap via std::greater
  std::unordered_map<TimerId, Task> timer_cbs_;
  TimerId next_timer_ = kNoTimer;

  // Loop-owned I/O state. Outbound lives in a node-stable map and Inbound
  // behind unique_ptr: epoll events carry raw pointers to them.
  std::unordered_map<ProcessId, Outbound> out_;
  std::vector<std::unique_ptr<Inbound>> in_;
  std::vector<Outbound*> dirty_;  // connections to flush at batch end
  std::vector<Task> local_posted_;  // loop-thread self-sends (no lock/wake)
  TransportStats stats_;  // loop-owned; atomics above fill the gaps

  // Stable storage (own loop thread only).
  std::unordered_map<std::string, StableSlot> stable_;
  std::vector<std::pair<void*, std::size_t>> mappings_;
  std::map<int, int> durable_fds_;
};

class ThreadCluster final : public Cluster {
 public:
  explicit ThreadCluster(ThreadClusterOptions options);
  ~ThreadCluster() override;  // stop() + join

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Registers a local process: its loopback listener binds immediately
  /// (so port_of works before start) and `factory` constructs the node on
  /// the process's own loop thread at start(). `port` 0 binds an ephemeral
  /// port; a fixed port lets separate OS processes compute each other's
  /// addresses up front (the mrpd convention: base_port + pid).
  ThreadRuntime& add_local(ProcessId pid, NodeFactory factory,
                           std::uint16_t port = 0);

  /// Cluster surface: add_local on an ephemeral port.
  void add_node(ProcessId pid, NodeFactory factory) override {
    add_local(pid, std::move(factory));
  }

  /// Registers a local actor with no node — an oracle like the registry:
  /// it gets a loop thread (timers + outgoing notifications) but hosts no
  /// message handler.
  ThreadRuntime& add_oracle(ProcessId pid);

  /// Registers a process served by another OS process listening on
  /// 127.0.0.1:`port` (the mrpd/mrpctl split).
  void add_remote(ProcessId pid, std::uint16_t port);

  std::uint16_t port_of(ProcessId pid) const;
  bool has_peer(ProcessId pid) const;

  /// Starts every local loop thread; node factories run on their loops.
  void start();

  /// Stops every loop and joins (idempotent). Nodes are destroyed on their
  /// own loop threads.
  void stop();

  /// Permanently kills one local process mid-run (crash injection for
  /// self-healing tests): joins its loop thread and makes it read as dead
  /// to every peer (sends drop, peer_alive goes false). Irreversible.
  void stop_local(ProcessId pid);

  /// Runs fn on pid's loop thread, blocking until it completed — the way
  /// harness code inspects or drives a node after start() (fn receives the
  /// hosted node, null for oracles). Aborts if pid was stopped.
  void call(ProcessId pid, const std::function<void(Node*)>& fn) override;

  Runtime& runtime(ProcessId pid);

  /// Transport counters for one local process, taken safely whether the
  /// cluster is running (hops to the loop thread) or already stopped.
  TransportStats transport_stats(ProcessId pid);
  /// Sum over every local process.
  TransportStats transport_stats_all();

  const ThreadClusterOptions& options() const { return options_; }
  /// Nanoseconds since cluster construction on the steady clock.
  TimeNs now() const;

 private:
  friend class ThreadRuntime;

  ThreadClusterOptions options_;
  std::chrono::steady_clock::time_point epoch_;
  std::map<ProcessId, std::unique_ptr<ThreadRuntime>> locals_;
  std::map<ProcessId, std::uint16_t> remote_ports_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace mrp::runtime
