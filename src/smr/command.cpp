#include "smr/command.hpp"

namespace mrp::smr {

Bytes encode_batch(const Batch& b) {
  codec::Writer w;
  // wire_size() bounds the encoding from above, so the buffer is allocated
  // once at about its final size (the acceptor log holds it until trim).
  w.reserve(b.wire_size());
  w.varint(b.commands.size());
  for (const Command& c : b.commands) {
    w.u64(c.session);
    w.u64(c.seq);
    w.bytes(c.op);
    w.varint(c.groups.size());
    for (GroupId g : c.groups) w.u32(static_cast<std::uint32_t>(g));
  }
  return w.take();
}

Batch decode_batch(const Bytes& data) {
  codec::Reader r(data);
  Batch b;
  const std::uint64_t n = r.varint();
  b.commands.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Command c;
    c.session = r.u64();
    c.seq = r.u64();
    c.op = r.bytes();
    const std::uint64_t g = r.varint();
    c.groups.reserve(g);
    for (std::uint64_t j = 0; j < g; ++j) {
      c.groups.push_back(static_cast<GroupId>(r.u32()));
    }
    b.commands.push_back(std::move(c));
  }
  r.expect_done();
  return b;
}

}  // namespace mrp::smr
