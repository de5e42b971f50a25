#include "trace.hpp"

#include "net/wire.hpp"
#include "util.hpp"

namespace bench {

std::atomic<int> g_phase{0};

namespace {

std::atomic<std::uint64_t> g_encode_ns{0}, g_encode_bytes{0};
std::atomic<std::uint64_t> g_decode_ns{0}, g_decode_bytes{0};

bool timed_encode(mrp::codec::Writer& w, const mrp::runtime::Message& m) {
  if (!in_phase(Phase::kPeak)) return mrp::net::wire_encode(w, m);
  const std::size_t before = w.size();
  const std::int64_t t0 = mono_ns();
  const bool ok = mrp::net::wire_encode(w, m);
  const std::int64_t t1 = mono_ns();
  g_encode_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                        std::memory_order_relaxed);
  g_encode_bytes.fetch_add(w.size() - before, std::memory_order_relaxed);
  return ok;
}

mrp::runtime::MessagePtr timed_decode(int kind, mrp::codec::Reader& r) {
  if (!in_phase(Phase::kPeak)) return mrp::net::wire_decode(kind, r);
  const std::size_t before = r.remaining();
  const std::int64_t t0 = mono_ns();
  mrp::runtime::MessagePtr m = mrp::net::wire_decode(kind, r);
  const std::int64_t t1 = mono_ns();
  g_decode_ns.fetch_add(static_cast<std::uint64_t>(t1 - t0),
                        std::memory_order_relaxed);
  g_decode_bytes.fetch_add(before - r.remaining(), std::memory_order_relaxed);
  return m;
}

}  // namespace

mrp::runtime::WireCodec timed_codec() {
  mrp::runtime::WireCodec c;
  c.encode = &timed_encode;
  c.decode = &timed_decode;
  return c;
}

CodecTotals codec_totals() {
  CodecTotals t;
  t.encode_ns = g_encode_ns.load();
  t.encode_bytes = g_encode_bytes.load();
  t.decode_ns = g_decode_ns.load();
  t.decode_bytes = g_decode_bytes.load();
  return t;
}

void reset_codec_totals() {
  g_encode_ns = 0;
  g_encode_bytes = 0;
  g_decode_ns = 0;
  g_decode_bytes = 0;
}

ReplicaTrace* Tracer::add_replica(mrp::ProcessId pid) {
  return (replicas_[pid] = std::make_unique<ReplicaTrace>()).get();
}

void Tracer::on_execute(ReplicaTrace& rt, int op_class,
                        mrp::smr::SessionId session, std::uint64_t seq,
                        std::int64_t start, std::int64_t end) {
  if (in_phase(Phase::kPeak) && op_class >= 0 && op_class < kOpClasses) {
    ++rt.exec_count[op_class];
    rt.exec_ns[op_class] += end - start;
  }
  OpenLoop* loop = open_.load();
  if (loop == nullptr) return;
  OpenRequest* r = loop->find_sampled(session, seq);
  if (r == nullptr) return;
  rt.spans.push_back(ExecSpan{loop->index_of(r), start, end});
}

void Tracer::on_delivery(ReplicaTrace& rt, GroupId group,
                         InstanceId instance) {
  if (!in_phase(Phase::kOpen)) return;
  rt.deliveries.push_back(DeliveryStamp{group, instance, mono_ns()});
}

}  // namespace bench
