#include "runtime/thread_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <utility>

#include "common/check.hpp"

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

namespace mrp::runtime {

namespace {

constexpr std::size_t kMaxFrame = 64u << 20;  // sanity bound, not a limit
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr int kMaxEpollEvents = 128;
// iovecs per sendmsg: enough to gather 32 header+body frame pairs per
// syscall without a large stack footprint (IOV_MAX is far higher).
constexpr std::size_t kMaxIov = 64;
// Longest epoll_wait: the loop re-checks stop_ at least this often.
constexpr int kMaxWaitMs = 200;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  MRP_CHECK(flags >= 0);
  MRP_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void make_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
    MRP_CHECK_MSG(false, "cannot create storage directory");
  }
}

/// Keys use '/' as a namespace separator (e.g. "ring/3/acceptor_log");
/// flatten for use as a file name.
std::string sanitize_key(const std::string& key) {
  std::string s = key;
  for (char& c : s) {
    if (c == '/' || c == '\\' || c == ':') c = '~';
  }
  return s;
}

}  // namespace

int wait_timeout_ms(TimeNs delta) {
  if (delta <= 0) return 0;
  // Round up: truncating-plus-one would wait 6 ms for an exact 5 ms timer.
  return static_cast<int>(std::min<TimeNs>(
      (delta + kMillisecond - 1) / kMillisecond, kMaxWaitMs));
}

// ---------------------------------------------------------------------------
// ThreadRuntime
// ---------------------------------------------------------------------------

ThreadRuntime::ThreadRuntime(ThreadCluster& cluster, ProcessId pid,
                             std::uint16_t port)
    : cluster_(cluster),
      pid_(pid),
      rng_(cluster.options().seed +
           static_cast<std::uint64_t>(static_cast<std::int64_t>(pid)) *
               0x9e3779b97f4a7c15ULL) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MRP_CHECK(listen_fd_ >= 0);
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // 0 = ephemeral (ports exchanged via ThreadCluster); nonzero = fixed, for
  // multi-OS-process deployments where peers compute ports up front (mrpd).
  addr.sin_port = htons(port);
  MRP_CHECK(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0);
  MRP_CHECK(::listen(listen_fd_, 64) == 0);
  socklen_t len = sizeof(addr);
  MRP_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                          &len) == 0);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);

  int pipefd[2];
  MRP_CHECK(::pipe(pipefd) == 0);
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
  set_nonblocking(wake_r_);
  set_nonblocking(wake_w_);

  epoll_fd_ = ::epoll_create1(0);
  MRP_CHECK(epoll_fd_ >= 0);
  // The wake pipe stays level-triggered: an undrained byte keeps epoll_wait
  // returning, which is what makes the coalescing protocol in wake()/loop()
  // lose-free. Everything else is edge-triggered with a persistent interest
  // set — no per-iteration epoll_ctl churn.
  epoll_add(wake_r_, EPOLLIN, &wake_tag_);
  epoll_add(listen_fd_, EPOLLIN | EPOLLET, &listen_tag_);
}

ThreadRuntime::~ThreadRuntime() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_release);
    wake();
    thread_.join();
  }
  for (auto& [addr, size] : mappings_) ::munmap(addr, size);
  for (auto& [index, fd] : durable_fds_) ::close(fd);
  for (auto& [to, ob] : out_) {
    if (ob.fd >= 0) ::close(ob.fd);
  }
  for (auto& in : in_) {
    if (in->fd >= 0) ::close(in->fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

TimeNs ThreadRuntime::now() const { return cluster_.now(); }

void ThreadRuntime::epoll_add(int fd, std::uint32_t events, void* tag) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  MRP_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void ThreadRuntime::wake() {
  // Coalesced: only the producer that flips wake_pending_ false→true writes
  // the pipe; everyone else knows a wake is already in flight. The loop
  // clears the flag at the top of each iteration *before* draining staged
  // work, so a producer that observes `true` has its work staged before the
  // drain that follows that clear — no wakeup is ever lost.
  wakes_requested_.fetch_add(1, std::memory_order_relaxed);
  if (wake_pending_.exchange(true)) return;
  const std::uint8_t b = 1;
  // EAGAIN means the pipe is full of pending wakeups — already awake.
  [[maybe_unused]] ssize_t n = ::write(wake_w_, &b, 1);
  wakes_written_.fetch_add(1, std::memory_order_relaxed);
}

ThreadRuntime::Frame ThreadRuntime::make_frame(
    ProcessId to, const Message& m,
    std::shared_ptr<const std::vector<std::uint8_t>> body) {
  Frame f;
  store_le32(f.header.data(),
             static_cast<std::uint32_t>(12 + body->size()));
  store_le32(f.header.data() + 4, static_cast<std::uint32_t>(pid_));
  store_le32(f.header.data() + 8, static_cast<std::uint32_t>(to));
  store_le32(f.header.data() + 12, static_cast<std::uint32_t>(m.kind()));
  f.body = std::move(body);
  return f;
}

void ThreadRuntime::send(ProcessId to, MessagePtr m) {
  MRP_CHECK(m != nullptr);
  if (to == pid_) {
    // Self-sends stay in-process (the sim delivers them without the network
    // too) — queue an asynchronous local delivery, preserving zero-copy. On
    // the loop's own thread this needs no lock and no wakeup.
    if (on_loop_thread()) {
      local_posted_.push_back([this, msg = std::move(m)] {
        if (node_) node_->on_message(pid_, *msg);
      });
      return;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      posted_.push_back([this, msg = std::move(m)] {
        if (node_) node_->on_message(pid_, *msg);
      });
    }
    wake();
    return;
  }
  if (!cluster_.has_peer(to)) return;  // dropped, like the sim's network
  MRP_CHECK_MSG(cluster_.options().codec.encode != nullptr,
                "ThreadCluster has no wire codec");
  // Encode-once: the body bytes are cached on the message, so forwarding
  // the same object to several peers (or around the ring) serializes once.
  auto body = m->encoded_body([this, &m](std::vector<std::uint8_t>& out) {
    thread_local codec::Writer w;
    w.clear();
    w.reserve(m->wire_size());
    if (!cluster_.options().codec.encode(w, *m)) return false;
    out = w.take();
    bodies_encoded_.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  MRP_CHECK_MSG(body != nullptr, "no wire encoder for sent message kind");
  MRP_CHECK(body->size() + 12 <= kMaxFrame);
  Frame f = make_frame(to, *m, std::move(body));
  if (on_loop_thread()) {
    // Keep per-sender FIFO order: frames staged by other threads on this
    // runtime's behalf (oracle calls) must hit the wire before a frame the
    // loop enqueues now.
    if (has_staged_.load(std::memory_order_acquire)) adopt_staged_frames();
    Outbound& ob = out_[to];
    ob.to = to;
    enqueue_frame(ob, std::move(f));
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    staged_frames_.emplace_back(to, std::move(f));
    has_staged_.store(true, std::memory_order_release);
  }
  wake();
}

TimerId ThreadRuntime::schedule(TimeNs delay, Task fn) {
  if (delay < 0) delay = 0;
  TimerId tid;
  {
    std::lock_guard<std::mutex> lk(mu_);
    tid = ++next_timer_;
    timer_cbs_.emplace(tid, std::move(fn));
    timer_heap_.push_back(TimerEntry{now() + delay, tid});
    std::push_heap(timer_heap_.begin(), timer_heap_.end(),
                   std::greater<TimerEntry>{});
  }
  // The loop recomputes its epoll timeout from the heap every iteration, so
  // a timer armed on the loop thread needs no wakeup.
  if (!on_loop_thread()) wake();
  return tid;
}

void ThreadRuntime::cancel(TimerId timer) {
  std::lock_guard<std::mutex> lk(mu_);
  timer_cbs_.erase(timer);  // heap entry fires into nothing
}

Task ThreadRuntime::guard(Task fn) {
  // Nodes on this backend live exactly as long as their loop (no
  // crash/recover mid-run), so the epoch guard is the identity.
  return fn;
}

bool ThreadRuntime::peer_alive(ProcessId p) const {
  return cluster_.has_peer(p);
}

StableSlot& ThreadRuntime::stable_record(const std::string& key) {
  return stable_[key];
}

std::string ThreadRuntime::storage_path(const std::string& leaf) const {
  return cluster_.options().storage_dir + "/p" + std::to_string(pid_) + "/" +
         leaf;
}

void* ThreadRuntime::stable_map(const std::string& key, std::size_t size,
                                bool* fresh) {
  if (cluster_.options().storage_dir.empty()) return nullptr;
  make_dir(cluster_.options().storage_dir);
  make_dir(cluster_.options().storage_dir + "/p" + std::to_string(pid_));
  const std::string path = storage_path("slot_" + sanitize_key(key));
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  MRP_CHECK_MSG(fd >= 0, "cannot open stable slot file");
  struct stat st{};
  MRP_CHECK(::fstat(fd, &st) == 0);
  *fresh = static_cast<std::size_t>(st.st_size) < size;
  if (*fresh) MRP_CHECK(::ftruncate(fd, static_cast<off_t>(size)) == 0);
  void* mapped =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  MRP_CHECK_MSG(mapped != MAP_FAILED, "mmap of stable slot failed");
  mappings_.emplace_back(mapped, size);
  return mapped;
}

int ThreadRuntime::durable_fd(int disk_index) {
  auto it = durable_fds_.find(disk_index);
  if (it != durable_fds_.end()) return it->second;
  make_dir(cluster_.options().storage_dir);
  make_dir(cluster_.options().storage_dir + "/p" + std::to_string(pid_));
  const std::string path = storage_path("wal" + std::to_string(disk_index));
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  MRP_CHECK_MSG(fd >= 0, "cannot open durable log file");
  durable_fds_.emplace(disk_index, fd);
  return fd;
}

void ThreadRuntime::durable_write(int disk_index, std::size_t bytes,
                                  Task done) {
  if (!cluster_.options().storage_dir.empty()) {
    // Synchronous append+fsync on the loop thread: the caller observes real
    // device latency, the way the sim's Disk models it.
    const int fd = durable_fd(disk_index);
    static const std::vector<std::uint8_t> zeros(64 * 1024, 0);
    std::size_t left = bytes;
    while (left > 0) {
      const std::size_t n = std::min(left, zeros.size());
      const ssize_t w = ::write(fd, zeros.data(), n);
      if (w < 0 && errno == EINTR) continue;  // retry, not a failure
      MRP_CHECK_MSG(w > 0, "durable log write failed");
      left -= static_cast<std::size_t>(w);
    }
    // An unchecked fsync would report durability that never happened.
#ifdef __APPLE__
    MRP_CHECK_MSG(::fsync(fd) == 0, "durable log fsync failed");
#else
    MRP_CHECK_MSG(::fdatasync(fd) == 0, "durable log fdatasync failed");
#endif
  }
  if (done) done();
}

TimeNs ThreadRuntime::next_deadline() {
  std::lock_guard<std::mutex> lk(mu_);
  // Cancelled timers may linger in the heap; waking early for one is
  // harmless (the fire loop skips it).
  return timer_heap_.empty() ? kNoDeadline : timer_heap_.front().deadline;
}

void ThreadRuntime::fire_due_timers() {
  for (;;) {
    Task fn;
    {
      std::lock_guard<std::mutex> lk(mu_);
      bool found = false;
      while (!timer_heap_.empty() && !found) {
        if (timer_heap_.front().deadline > now()) break;
        std::pop_heap(timer_heap_.begin(), timer_heap_.end(),
                      std::greater<TimerEntry>{});
        const TimerId tid = timer_heap_.back().id;
        timer_heap_.pop_back();
        auto it = timer_cbs_.find(tid);
        if (it != timer_cbs_.end()) {
          fn = std::move(it->second);
          timer_cbs_.erase(it);
          found = true;
        }
      }
      if (!found) return;
    }
    fn();
  }
}

void ThreadRuntime::drain_posted(std::vector<Task>& out) {
  out.clear();
  {
    std::lock_guard<std::mutex> lk(mu_);
    out.swap(posted_);
  }
  for (Task& t : out) t();
  out.clear();
}

void ThreadRuntime::drain_local_posted() {
  // Tasks may append more (self-send chains); run until quiescent.
  while (!local_posted_.empty()) {
    std::vector<Task> tasks;
    tasks.swap(local_posted_);
    for (Task& t : tasks) t();
  }
}

void ThreadRuntime::adopt_staged_frames() {
  std::vector<std::pair<ProcessId, Frame>> staged;
  {
    std::lock_guard<std::mutex> lk(mu_);
    staged.swap(staged_frames_);
    has_staged_.store(false, std::memory_order_release);
  }
  for (auto& [to, f] : staged) {
    Outbound& ob = out_[to];
    ob.to = to;
    enqueue_frame(ob, std::move(f));
  }
}

void ThreadRuntime::drain_wake_pipe() {
  std::uint8_t buf[256];
  for (;;) {
    const ssize_t n = ::read(wake_r_, buf, sizeof(buf));
    ++stats_.syscalls;
    if (n == static_cast<ssize_t>(sizeof(buf))) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // drained (short read) or EAGAIN
  }
}

void ThreadRuntime::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    ++stats_.syscalls;
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: drained (edge-triggered listener)
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    epoll_add(fd, EPOLLIN | EPOLLRDHUP | EPOLLET, in.get());
    in_.push_back(std::move(in));
  }
}

void ThreadRuntime::read_ready(Inbound& in) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(in.fd, chunk, sizeof(chunk), 0);
    ++stats_.syscalls;
    if (n > 0) {
      in.buf.insert(in.buf.end(), chunk, chunk + n);
      continue;  // edge-triggered: must drain until EAGAIN
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed or errored: the connection's queued frames are lost
    // (at-most-once delivery), the buffer's complete frames still count.
    ::close(in.fd);  // also drops the fd from the epoll set
    in.fd = -1;
    break;
  }
  dispatch_frames(in);
}

void ThreadRuntime::dispatch_frames(Inbound& in) {
  std::size_t pos = 0;
  while (in.buf.size() - pos >= 4) {
    const std::uint32_t len = load_le32(in.buf.data() + pos);
    MRP_CHECK_MSG(len >= 12 && len <= kMaxFrame, "malformed frame length");
    if (in.buf.size() - pos < 4u + len) break;
    const std::uint8_t* p = in.buf.data() + pos + 4;
    const auto from = static_cast<ProcessId>(load_le32(p));
    const auto to = static_cast<ProcessId>(load_le32(p + 4));
    const int kind = static_cast<int>(load_le32(p + 8));
    pos += 4u + len;
    MRP_CHECK_MSG(cluster_.options().codec.decode != nullptr,
                  "ThreadCluster has no wire codec");
    codec::Reader r(p + 12, len - 12);
    MessagePtr m = cluster_.options().codec.decode(kind, r);
    MRP_CHECK_MSG(m != nullptr, "no wire decoder for received message kind");
    r.expect_done();
    ++stats_.frames_received;
    if (to == pid_ && node_) node_->on_message(from, *m);
  }
  if (pos > 0) in.buf.erase(in.buf.begin(), in.buf.begin() + pos);
}

void ThreadRuntime::close_outbound(Outbound& ob) {
  if (ob.fd >= 0) ::close(ob.fd);  // also drops the fd from the epoll set
  ob.fd = -1;
  ob.connecting = false;
  ob.dirty = false;  // a dangling dirty_ entry skips it via this flag
  ob.q.clear();  // at-most-once: queued frames die with the link
  ob.front_off = 0;
  ob.pending_bytes = 0;
}

void ThreadRuntime::enqueue_frame(Outbound& ob, Frame f) {
  const std::size_t sz = f.size();
  // Bounded buffers: a stalled reader cannot grow this queue without
  // limit. Dropping is legal under the at-most-once contract and is what
  // the sim's lossy network does; the counter makes it observable.
  if (ob.pending_bytes + sz > cluster_.options().max_conn_pending_bytes) {
    ++stats_.frames_dropped;
    return;
  }
  ob.pending_bytes += sz;
  stats_.pending_bytes_hwm =
      std::max<std::uint64_t>(stats_.pending_bytes_hwm, ob.pending_bytes);
  ++stats_.frames_sent;
  ob.q.push_back(std::move(f));
  if (!ob.dirty) {
    ob.dirty = true;
    dirty_.push_back(&ob);
  }
  // Adaptive: small frames batch until the end of the event batch; a queue
  // crossing the high-water mark flushes now to bound latency and memory.
  if (ob.pending_bytes >= cluster_.options().flush_hwm_bytes) flush_one(ob);
}

bool ThreadRuntime::ensure_connected(Outbound& ob) {
  if (ob.fd >= 0) return !ob.connecting;
  const std::uint16_t port = cluster_.port_of(ob.to);
  if (port == 0) {  // peer vanished from the map: drop
    ob.q.clear();
    ob.front_off = 0;
    ob.pending_bytes = 0;
    return false;
  }
  ob.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ++stats_.syscalls;
  MRP_CHECK(ob.fd >= 0);
  set_nonblocking(ob.fd);
  set_nodelay(ob.fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const int rc =
      ::connect(ob.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ++stats_.syscalls;
  // Registered once with EPOLLOUT|EPOLLET for the connection's lifetime:
  // edge-triggered EPOLLOUT only fires on not-writable→writable
  // transitions (connect completion, kernel buffer draining after a short
  // write), so the interest set needs no MOD churn while the socket stays
  // writable — the moral equivalent of "EPOLLOUT only while pending".
  if (rc != 0) {
    if (errno == EINPROGRESS) {
      ob.connecting = true;
      epoll_add(ob.fd, EPOLLOUT | EPOLLRDHUP | EPOLLET, &ob);
      return false;  // EPOLLOUT completes the connect
    }
    close_outbound(ob);
    return false;
  }
  ob.connecting = false;
  epoll_add(ob.fd, EPOLLOUT | EPOLLRDHUP | EPOLLET, &ob);
  return true;
}

void ThreadRuntime::out_ready(Outbound& ob, std::uint32_t events) {
  if (ob.fd < 0) return;  // closed earlier in this batch
  if (ob.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(ob.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err == EINPROGRESS) return;  // still connecting
    if (err != 0) {
      close_outbound(ob);
      return;
    }
    ob.connecting = false;
    flush_one(ob);
    return;
  }
  if (events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) {
    close_outbound(ob);
    return;
  }
  if (events & EPOLLOUT) flush_one(ob);
}

void ThreadRuntime::flush_one(Outbound& ob) {
  ob.dirty = false;
  if (ob.q.empty()) return;
  if (!ensure_connected(ob)) return;
  while (!ob.q.empty()) {
    // Scatter-gather straight out of the frame queue: header and body
    // iovecs per frame, no intermediate flat copy.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t batch = 0;
    std::size_t off = ob.front_off;
    for (const Frame& f : ob.q) {
      if (niov + 2 > kMaxIov) break;
      if (off < f.header.size()) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(f.header.data()) + off;
        iov[niov].iov_len = f.header.size() - off;
        batch += iov[niov].iov_len;
        ++niov;
        off = 0;
      } else {
        off -= f.header.size();
      }
      if (f.body->size() > off) {
        iov[niov].iov_base = const_cast<std::uint8_t*>(f.body->data()) + off;
        iov[niov].iov_len = f.body->size() - off;
        batch += iov[niov].iov_len;
        ++niov;
      }
      off = 0;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(ob.fd, &mh, MSG_NOSIGNAL);
    ++stats_.syscalls;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT resumes
      close_outbound(ob);
      return;
    }
    ++stats_.flushes;
    stats_.flushed_bytes += static_cast<std::uint64_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      Frame& f = ob.q.front();
      const std::size_t remain = f.size() - ob.front_off;
      if (left >= remain) {
        left -= remain;
        ob.pending_bytes -= remain;
        ob.front_off = 0;
        ob.q.pop_front();
        ++stats_.flushed_frames;
      } else {
        ob.front_off += left;
        ob.pending_bytes -= left;
        left = 0;
      }
    }
    // A short write means the kernel buffer filled: the socket is now
    // unwritable, so the next edge-triggered EPOLLOUT resumes the flush.
    if (static_cast<std::size_t>(n) < batch) return;
  }
}

void ThreadRuntime::flush_dirty() {
  // flush_one may run mid-batch (high-water mark) and clear a flag; the
  // flag check skips those and any duplicate pointers.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (dirty_[i]->dirty) flush_one(*dirty_[i]);
  }
  dirty_.clear();
}

void ThreadRuntime::loop() {
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
  if (factory_) {
    node_ = factory_(*this);
    node_->on_start();
  }
  std::vector<Task> tasks;
  struct epoll_event events[kMaxEpollEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    // Clearing the wake flag *before* draining staged work is what makes
    // coalescing lose-free: a producer that saw the flag `true` staged its
    // work before this clear's drain runs (see wake()).
    wake_pending_.store(false);
    drain_posted(tasks);
    drain_local_posted();
    adopt_staged_frames();
    fire_due_timers();
    drain_local_posted();  // timers may have self-sent
    in_.erase(std::remove_if(
                  in_.begin(), in_.end(),
                  [](const std::unique_ptr<Inbound>& in) {
                    return in->fd < 0;
                  }),
              in_.end());
    if (stop_.load(std::memory_order_acquire)) break;
    flush_dirty();

    const TimeNs deadline = next_deadline();
    const int timeout_ms = wait_timeout_ms(
        deadline == kNoDeadline ? kMaxWaitMs * kMillisecond
                                : deadline - now());
    const int nready = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents,
                                    timeout_ms);
    ++stats_.syscalls;
    ++stats_.epoll_waits;
    if (nready <= 0) continue;  // timeout or EINTR

    for (int i = 0; i < nready; ++i) {
      void* p = events[i].data.ptr;
      switch (*static_cast<const int*>(p)) {
        case kTagWake:
          drain_wake_pipe();
          break;
        case kTagListen:
          accept_ready();
          break;
        case kTagIn:
          read_ready(*static_cast<Inbound*>(p));
          break;
        case kTagOut:
          out_ready(*static_cast<Outbound*>(p), events[i].events);
          break;
      }
    }
    // Replies generated while dispatching this batch go out in one flush
    // per connection (the deferred-flush half of the batching design).
    flush_dirty();
  }
  node_.reset();  // destroy the node on its own loop thread
}

TransportStats ThreadRuntime::transport_stats() const {
  TransportStats s = stats_;
  s.wakes_requested = wakes_requested_.load(std::memory_order_relaxed);
  s.wakes_written = wakes_written_.load(std::memory_order_relaxed);
  s.bodies_encoded = bodies_encoded_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// ThreadCluster
// ---------------------------------------------------------------------------

ThreadCluster::ThreadCluster(ThreadClusterOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {}

ThreadCluster::~ThreadCluster() { stop(); }

TimeNs ThreadCluster::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

ThreadRuntime& ThreadCluster::add_local(ProcessId pid, NodeFactory factory,
                                        std::uint16_t port) {
  MRP_CHECK_MSG(!started_, "add_local after start");
  MRP_CHECK_MSG(!has_peer(pid), "duplicate process id");
  auto rt =
      std::unique_ptr<ThreadRuntime>(new ThreadRuntime(*this, pid, port));
  rt->factory_ = std::move(factory);
  ThreadRuntime& ref = *rt;
  locals_.emplace(pid, std::move(rt));
  return ref;
}

ThreadRuntime& ThreadCluster::add_oracle(ProcessId pid) {
  return add_local(pid, nullptr);
}

void ThreadCluster::add_remote(ProcessId pid, std::uint16_t port) {
  MRP_CHECK_MSG(!started_, "add_remote after start");
  MRP_CHECK_MSG(!has_peer(pid), "duplicate process id");
  remote_ports_.emplace(pid, port);
}

std::uint16_t ThreadCluster::port_of(ProcessId pid) const {
  if (auto it = locals_.find(pid); it != locals_.end()) {
    if (it->second->killed_.load(std::memory_order_acquire)) return 0;
    return it->second->port();
  }
  if (auto it = remote_ports_.find(pid); it != remote_ports_.end()) {
    return it->second;
  }
  return 0;
}

bool ThreadCluster::has_peer(ProcessId pid) const {
  if (auto it = locals_.find(pid); it != locals_.end()) {
    return !it->second->killed_.load(std::memory_order_acquire);
  }
  return remote_ports_.count(pid) != 0;
}

void ThreadCluster::start() {
  MRP_CHECK_MSG(!started_, "double start");
  started_ = true;
  for (auto& [pid, rt] : locals_) {
    ThreadRuntime* r = rt.get();
    r->thread_ = std::thread([r] { r->loop(); });
  }
}

void ThreadCluster::stop() {
  if (!started_ || stopped_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  for (auto& [pid, rt] : locals_) {
    rt->stop_.store(true, std::memory_order_release);
    rt->wake();
  }
  for (auto& [pid, rt] : locals_) {
    if (rt->thread_.joinable()) rt->thread_.join();
  }
}

void ThreadCluster::stop_local(ProcessId pid) {
  MRP_CHECK_MSG(started_ && !stopped_, "stop_local outside start/stop window");
  auto it = locals_.find(pid);
  MRP_CHECK_MSG(it != locals_.end(), "stop_local on unknown/remote process");
  ThreadRuntime& rt = *it->second;
  // Mark dead first so peers stop connecting while the loop winds down.
  rt.killed_.store(true, std::memory_order_release);
  rt.stop_.store(true, std::memory_order_release);
  rt.wake();
  if (rt.thread_.joinable()) rt.thread_.join();
}

void ThreadCluster::call(ProcessId pid, const std::function<void(Node*)>& fn) {
  MRP_CHECK_MSG(started_ && !stopped_, "call outside start/stop window");
  auto it = locals_.find(pid);
  MRP_CHECK_MSG(it != locals_.end(), "call on unknown/remote process");
  ThreadRuntime& rt = *it->second;
  // A stopped loop never runs the posted task: waiting for it would hang.
  MRP_CHECK_MSG(!rt.killed_.load(std::memory_order_acquire),
                "call on a process that is down");
  std::promise<void> done;
  {
    std::lock_guard<std::mutex> lk(rt.mu_);
    rt.posted_.push_back([&rt, &fn, &done] {
      fn(rt.node_.get());
      done.set_value();
    });
  }
  rt.wake();
  done.get_future().get();
}

Runtime& ThreadCluster::runtime(ProcessId pid) {
  auto it = locals_.find(pid);
  MRP_CHECK_MSG(it != locals_.end(), "unknown local process");
  return *it->second;
}

TransportStats ThreadCluster::transport_stats(ProcessId pid) {
  auto it = locals_.find(pid);
  MRP_CHECK_MSG(it != locals_.end(), "unknown local process");
  ThreadRuntime& rt = *it->second;
  if (started_ && !stopped_ &&
      !rt.killed_.load(std::memory_order_acquire)) {
    // Loop-owned counters: hop to the loop thread for a consistent read.
    TransportStats s;
    call(pid, [&rt, &s](Node*) { s = rt.transport_stats(); });
    return s;
  }
  return rt.transport_stats();  // loop joined or never started: safe
}

TransportStats ThreadCluster::transport_stats_all() {
  TransportStats total;
  for (auto& [pid, rt] : locals_) total += transport_stats(pid);
  return total;
}

}  // namespace mrp::runtime
