#include "net/wire.hpp"

#include <memory>
#include <utility>

#include "codec/codec.hpp"
#include "coord/registry.hpp"
#include "recovery/messages.hpp"
#include "ringpaxos/messages.hpp"
#include "smr/command.hpp"

namespace mrp::net {
namespace {

using codec::Reader;
using codec::Writer;

// ---- field helpers ---------------------------------------------------------
// Signed 32-bit ids (ProcessId, GroupId) travel as their two's-complement u32
// so kNoProcess (-1) round-trips.

void put_id(Writer& w, std::int32_t v) { w.u32(static_cast<std::uint32_t>(v)); }
std::int32_t get_id(Reader& r) { return static_cast<std::int32_t>(r.u32()); }

void put_value(Writer& w, const paxos::Value& v) {
  put_id(w, v.id.proposer);
  w.u64(v.id.seq);
  w.u32(v.skip_count);
  w.bytes(v.payload.bytes());
}

paxos::Value get_value(Reader& r) {
  paxos::Value v;
  v.id.proposer = get_id(r);
  v.id.seq = r.u64();
  v.skip_count = r.u32();
  v.payload = Payload(r.bytes());
  return v;
}

void put_promise(Writer& w, const paxos::Promise& p) {
  w.u64(p.instance);
  w.u64(p.vround);
  put_value(w, p.value);
  w.u8(p.decided ? 1 : 0);
}

paxos::Promise get_promise(Reader& r) {
  paxos::Promise p;
  p.instance = r.u64();
  p.vround = r.u64();
  p.value = get_value(r);
  p.decided = r.u8() != 0;
  return p;
}

void put_ring_base(Writer& w, const ringpaxos::RingMessage& m) {
  put_id(w, m.ring);
  w.u32(static_cast<std::uint32_t>(m.ttl));
}

template <class T>
std::shared_ptr<T> ring_base(Reader& r) {
  auto m = std::make_shared<T>();
  m->ring = get_id(r);
  m->ttl = static_cast<int>(r.u32());
  return m;
}

void put_command(Writer& w, const smr::Command& c) {
  w.u64(c.session);
  w.u64(c.seq);
  w.bytes(c.op);
  // Multi-group frame addressing: the full addressed group set rides the
  // frame so every copy of an atomic multi-group command is self-describing.
  w.varint(c.groups.size());
  for (GroupId g : c.groups) put_id(w, g);
}

smr::Command get_command(Reader& r) {
  smr::Command c;
  c.session = r.u64();
  c.seq = r.u64();
  c.op = r.bytes();
  const std::uint64_t n = r.varint();
  c.groups.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) c.groups.push_back(get_id(r));
  return c;
}

void put_tuple(Writer& w, const storage::CheckpointTuple& t) {
  w.varint(t.size());
  for (const auto& [group, instance] : t) {
    put_id(w, group);
    w.u64(instance);
  }
}

storage::CheckpointTuple get_tuple(Reader& r) {
  storage::CheckpointTuple t;
  std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    GroupId g = get_id(r);
    t[g] = r.u64();
  }
  return t;
}

// ---- per-kind bodies -------------------------------------------------------

bool encode_body(Writer& w, const runtime::Message& m) {
  switch (m.kind()) {
    case ringpaxos::kMsgProposal: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgProposal>(m);
      put_ring_base(w, x);
      put_value(w, x.value);
      return true;
    }
    case ringpaxos::kMsgPhase1A: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgPhase1A>(m);
      put_ring_base(w, x);
      w.u64(x.round);
      w.u64(x.floor);
      w.u64(x.aview);
      return true;
    }
    case ringpaxos::kMsgPhase1B: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgPhase1B>(m);
      put_ring_base(w, x);
      w.u64(x.round);
      put_id(w, x.acceptor);
      w.u64(x.trimmed_to);
      w.u64(x.aview);
      w.varint(x.promises.size());
      for (const auto& p : x.promises) put_promise(w, p);
      return true;
    }
    case ringpaxos::kMsgPhase2: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgPhase2>(m);
      put_ring_base(w, x);
      w.u64(x.round);
      w.u64(x.instance);
      put_value(w, x.value);
      w.u64(x.votes);
      w.u64(x.aview);
      return true;
    }
    case ringpaxos::kMsgDecision: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgDecision>(m);
      put_ring_base(w, x);
      w.u64(x.instance);
      w.u8(x.with_value ? 1 : 0);
      if (x.with_value) put_value(w, x.value);
      put_id(w, x.origin);
      return true;
    }
    case ringpaxos::kMsgRetransmitReq: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgRetransmitReq>(m);
      put_ring_base(w, x);
      w.u64(x.lo);
      w.u64(x.hi);
      return true;
    }
    case ringpaxos::kMsgRetransmitReply: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgRetransmitReply>(m);
      put_ring_base(w, x);
      w.u64(x.lo);
      w.u64(x.hi);
      w.u64(x.trimmed_to);
      w.varint(x.decided.size());
      for (const auto& [instance, value] : x.decided) {
        w.u64(instance);
        put_value(w, value);
      }
      return true;
    }
    case ringpaxos::kMsgTrim: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgTrim>(m);
      put_ring_base(w, x);
      w.u64(x.upto);
      return true;
    }
    case ringpaxos::kMsgBusy: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgBusy>(m);
      put_ring_base(w, x);
      put_id(w, x.id.proposer);
      w.u64(x.id.seq);
      w.i64(x.retry_after);
      return true;
    }
    case ringpaxos::kMsgSkipDemand: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgSkipDemand>(m);
      put_ring_base(w, x);
      w.u64(x.upto);
      return true;
    }
    case ringpaxos::kMsgLogSyncReq: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgLogSyncReq>(m);
      put_ring_base(w, x);
      w.u64(x.seq);
      w.u64(x.from);
      return true;
    }
    case ringpaxos::kMsgLogSyncReply: {
      const auto& x = runtime::msg_cast<ringpaxos::MsgLogSyncReply>(m);
      put_ring_base(w, x);
      w.u64(x.seq);
      w.u64(x.from);
      w.u64(x.promised);
      w.u64(x.trimmed_to);
      w.varint(x.records.size());
      for (const auto& p : x.records) put_promise(w, p);
      w.u64(x.next);
      w.u8(x.done ? 1 : 0);
      return true;
    }

    case smr::kMsgClientRequest: {
      const auto& x = runtime::msg_cast<smr::MsgClientRequest>(m);
      put_id(w, x.group);
      put_command(w, x.command);
      return true;
    }
    case smr::kMsgClientReply: {
      const auto& x = runtime::msg_cast<smr::MsgClientReply>(m);
      w.u64(x.session);
      w.u64(x.seq);
      w.u32(static_cast<std::uint32_t>(x.partition_tag));
      w.bytes(x.result);
      return true;
    }
    case smr::kMsgClientBusy: {
      const auto& x = runtime::msg_cast<smr::MsgClientBusy>(m);
      w.u64(x.session);
      w.u64(x.seq);
      put_id(w, x.group);
      w.i64(x.retry_after);
      return true;
    }

    case coord::kMsgViewChange: {
      const auto& x = runtime::msg_cast<coord::MsgViewChange>(m);
      put_id(w, x.view.ring);
      w.u64(x.view.epoch);
      w.varint(x.view.members.size());
      for (ProcessId p : x.view.members) put_id(w, p);
      w.varint(x.view.acceptors.size());
      for (ProcessId p : x.view.acceptors) put_id(w, p);
      w.varint(x.view.total_acceptors);
      put_id(w, x.view.coordinator);
      w.u64(x.view.acceptor_view);
      w.varint(x.view.configured_acceptors.size());
      for (ProcessId p : x.view.configured_acceptors) put_id(w, p);
      return true;
    }
    case coord::kMsgSchemaChange: {
      const auto& x = runtime::msg_cast<coord::MsgSchemaChange>(m);
      w.str(x.key);
      w.u64(x.entry.version);
      w.str(x.entry.encoded);
      return true;
    }
    case coord::kMsgSubChange: {
      const auto& x = runtime::msg_cast<coord::MsgSubChange>(m);
      put_id(w, x.process);
      w.u64(x.epoch);
      w.varint(x.groups.size());
      for (GroupId g : x.groups) put_id(w, g);
      return true;
    }
    case coord::kMsgAcceptorPrep: {
      const auto& x = runtime::msg_cast<coord::MsgAcceptorPrep>(m);
      put_id(w, x.ring);
      w.u64(x.seq);
      w.varint(x.sources.size());
      for (ProcessId p : x.sources) put_id(w, p);
      return true;
    }

    case recovery::kMsgTrimQuery: {
      const auto& x = runtime::msg_cast<recovery::MsgTrimQuery>(m);
      put_id(w, x.group);
      return true;
    }
    case recovery::kMsgTrimReply: {
      const auto& x = runtime::msg_cast<recovery::MsgTrimReply>(m);
      put_id(w, x.group);
      w.u64(x.safe);
      w.str(x.partition_key);
      return true;
    }
    case recovery::kMsgCkptQuery:
      runtime::msg_cast<recovery::MsgCkptQuery>(m);
      return true;
    case recovery::kMsgCkptInfo: {
      const auto& x = runtime::msg_cast<recovery::MsgCkptInfo>(m);
      w.u8(x.has ? 1 : 0);
      put_tuple(w, x.tuple);
      w.u64(x.sequence);
      return true;
    }
    case recovery::kMsgCkptFetch:
      runtime::msg_cast<recovery::MsgCkptFetch>(m);
      return true;
    case recovery::kMsgCkptState: {
      const auto& x = runtime::msg_cast<recovery::MsgCkptState>(m);
      w.u8(x.has ? 1 : 0);
      if (x.has) {
        put_tuple(w, x.checkpoint.next);
        w.bytes(x.checkpoint.state);
        w.u64(x.checkpoint.sequence);
      }
      return true;
    }

    default:
      return false;
  }
}

runtime::MessagePtr decode_body(int kind, Reader& r) {
  switch (kind) {
    case ringpaxos::kMsgProposal: {
      auto m = ring_base<ringpaxos::MsgProposal>(r);
      m->value = get_value(r);
      return m;
    }
    case ringpaxos::kMsgPhase1A: {
      auto m = ring_base<ringpaxos::MsgPhase1A>(r);
      m->round = r.u64();
      m->floor = r.u64();
      m->aview = r.u64();
      return m;
    }
    case ringpaxos::kMsgPhase1B: {
      auto m = ring_base<ringpaxos::MsgPhase1B>(r);
      m->round = r.u64();
      m->acceptor = get_id(r);
      m->trimmed_to = r.u64();
      m->aview = r.u64();
      std::uint64_t n = r.varint();
      m->promises.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m->promises.push_back(get_promise(r));
      return m;
    }
    case ringpaxos::kMsgPhase2: {
      auto m = ring_base<ringpaxos::MsgPhase2>(r);
      m->round = r.u64();
      m->instance = r.u64();
      m->value = get_value(r);
      m->votes = r.u64();
      m->aview = r.u64();
      return m;
    }
    case ringpaxos::kMsgDecision: {
      auto m = ring_base<ringpaxos::MsgDecision>(r);
      m->instance = r.u64();
      m->with_value = r.u8() != 0;
      if (m->with_value) m->value = get_value(r);
      m->origin = get_id(r);
      return m;
    }
    case ringpaxos::kMsgRetransmitReq: {
      auto m = ring_base<ringpaxos::MsgRetransmitReq>(r);
      m->lo = r.u64();
      m->hi = r.u64();
      return m;
    }
    case ringpaxos::kMsgRetransmitReply: {
      auto m = ring_base<ringpaxos::MsgRetransmitReply>(r);
      m->lo = r.u64();
      m->hi = r.u64();
      m->trimmed_to = r.u64();
      std::uint64_t n = r.varint();
      m->decided.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        InstanceId instance = r.u64();
        m->decided.emplace_back(instance, get_value(r));
      }
      return m;
    }
    case ringpaxos::kMsgTrim: {
      auto m = ring_base<ringpaxos::MsgTrim>(r);
      m->upto = r.u64();
      return m;
    }
    case ringpaxos::kMsgBusy: {
      auto m = ring_base<ringpaxos::MsgBusy>(r);
      m->id.proposer = get_id(r);
      m->id.seq = r.u64();
      m->retry_after = r.i64();
      return m;
    }
    case ringpaxos::kMsgSkipDemand: {
      auto m = ring_base<ringpaxos::MsgSkipDemand>(r);
      m->upto = r.u64();
      return m;
    }
    case ringpaxos::kMsgLogSyncReq: {
      auto m = ring_base<ringpaxos::MsgLogSyncReq>(r);
      m->seq = r.u64();
      m->from = r.u64();
      return m;
    }
    case ringpaxos::kMsgLogSyncReply: {
      auto m = ring_base<ringpaxos::MsgLogSyncReply>(r);
      m->seq = r.u64();
      m->from = r.u64();
      m->promised = r.u64();
      m->trimmed_to = r.u64();
      std::uint64_t n = r.varint();
      m->records.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m->records.push_back(get_promise(r));
      m->next = r.u64();
      m->done = r.u8() != 0;
      return m;
    }

    case smr::kMsgClientRequest: {
      auto m = std::make_shared<smr::MsgClientRequest>();
      m->group = get_id(r);
      m->command = get_command(r);
      return m;
    }
    case smr::kMsgClientReply: {
      auto m = std::make_shared<smr::MsgClientReply>();
      m->session = r.u64();
      m->seq = r.u64();
      m->partition_tag = static_cast<int>(r.u32());
      m->result = r.bytes();
      return m;
    }
    case smr::kMsgClientBusy: {
      auto m = std::make_shared<smr::MsgClientBusy>();
      m->session = r.u64();
      m->seq = r.u64();
      m->group = get_id(r);
      m->retry_after = r.i64();
      return m;
    }

    case coord::kMsgViewChange: {
      auto m = std::make_shared<coord::MsgViewChange>();
      m->view.ring = get_id(r);
      m->view.epoch = r.u64();
      std::uint64_t nm = r.varint();
      m->view.members.reserve(nm);
      for (std::uint64_t i = 0; i < nm; ++i) m->view.members.push_back(get_id(r));
      std::uint64_t na = r.varint();
      m->view.acceptors.reserve(na);
      for (std::uint64_t i = 0; i < na; ++i)
        m->view.acceptors.push_back(get_id(r));
      m->view.total_acceptors = static_cast<std::size_t>(r.varint());
      m->view.coordinator = get_id(r);
      m->view.acceptor_view = r.u64();
      std::uint64_t nc = r.varint();
      m->view.configured_acceptors.reserve(nc);
      for (std::uint64_t i = 0; i < nc; ++i)
        m->view.configured_acceptors.push_back(get_id(r));
      return m;
    }
    case coord::kMsgSchemaChange: {
      auto m = std::make_shared<coord::MsgSchemaChange>();
      m->key = r.str();
      m->entry.version = r.u64();
      m->entry.encoded = r.str();
      return m;
    }
    case coord::kMsgSubChange: {
      auto m = std::make_shared<coord::MsgSubChange>();
      m->process = get_id(r);
      m->epoch = r.u64();
      std::uint64_t n = r.varint();
      m->groups.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m->groups.push_back(get_id(r));
      return m;
    }
    case coord::kMsgAcceptorPrep: {
      auto m = std::make_shared<coord::MsgAcceptorPrep>();
      m->ring = get_id(r);
      m->seq = r.u64();
      std::uint64_t n = r.varint();
      m->sources.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) m->sources.push_back(get_id(r));
      return m;
    }

    case recovery::kMsgTrimQuery: {
      auto m = std::make_shared<recovery::MsgTrimQuery>();
      m->group = get_id(r);
      return m;
    }
    case recovery::kMsgTrimReply: {
      auto m = std::make_shared<recovery::MsgTrimReply>();
      m->group = get_id(r);
      m->safe = r.u64();
      m->partition_key = r.str();
      return m;
    }
    case recovery::kMsgCkptQuery:
      return std::make_shared<recovery::MsgCkptQuery>();
    case recovery::kMsgCkptInfo: {
      auto m = std::make_shared<recovery::MsgCkptInfo>();
      m->has = r.u8() != 0;
      m->tuple = get_tuple(r);
      m->sequence = r.u64();
      return m;
    }
    case recovery::kMsgCkptFetch:
      return std::make_shared<recovery::MsgCkptFetch>();
    case recovery::kMsgCkptState: {
      auto m = std::make_shared<recovery::MsgCkptState>();
      m->has = r.u8() != 0;
      if (m->has) {
        m->checkpoint.next = get_tuple(r);
        m->checkpoint.state = r.bytes();
        m->checkpoint.sequence = r.u64();
      }
      return m;
    }

    default:
      return nullptr;
  }
}

}  // namespace

bool wire_encode(Writer& w, const runtime::Message& m) {
  return encode_body(w, m);
}

runtime::MessagePtr wire_decode(int kind, Reader& r) {
  return decode_body(kind, r);
}

runtime::WireCodec wire_codec() {
  runtime::WireCodec c;
  c.encode = &wire_encode;
  c.decode = &wire_decode;
  return c;
}

}  // namespace mrp::net
