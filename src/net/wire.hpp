// Wire codec for the protocol message set (ThreadRuntime transport).
//
// The simulator passes message objects by pointer, so the protocol modules
// never needed a serialized form. Real sockets do: this module maps every
// message kind that crosses a process boundary — Ring Paxos (100-111), SMR
// client traffic (300-302), registry watch notifications (600-602), and the
// recovery protocol (610-615) — onto the codec's little-endian format.
//
// Bodies are self-contained (the frame header already carries from/to/kind),
// and decode validates with expect_done at the frame layer, so a trailing
// byte in a body is a hard error rather than silent drift between encoder
// and decoder versions.
#pragma once

#include "runtime/thread_runtime.hpp"

namespace mrp::net {

/// The codec covering all protocol message kinds. Plug into
/// ThreadClusterOptions::codec (or mrpd's transport).
runtime::WireCodec wire_codec();

/// Exposed for tests: encode/decode a single message body.
bool wire_encode(codec::Writer& w, const runtime::Message& m);
runtime::MessagePtr wire_decode(int kind, codec::Reader& r);

}  // namespace mrp::net
