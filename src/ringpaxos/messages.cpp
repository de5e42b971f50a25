// Anchor translation unit for the ring paxos message definitions (all
// message types are header-only; this TU exists so the library has a
// non-empty object for the messages component).
#include "ringpaxos/messages.hpp"

namespace mrp::ringpaxos {
static_assert(kMsgProposal >= 100 && kMsgLogSyncReply <= 199,
              "ring paxos message kinds must stay in their range");
}  // namespace mrp::ringpaxos
