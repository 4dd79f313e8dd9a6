// The peer protocol's message-type registry and RPC envelope.
//
// Every frame on the wire (rpc/frame.h) carries one envelope: a small
// fixed header — version, message type, request/response flag, status
// code, call id — followed by the message body encoded with the
// existing wire/serde primitives. The call id multiplexes concurrent
// requests over one connection: a client may pipeline several calls
// and match responses back by id, in any arrival order.
#ifndef P2PRANGE_RPC_MESSAGE_H_
#define P2PRANGE_RPC_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace p2prange {
namespace rpc {

/// \brief The peer protocol. Values are wire-stable: never renumber.
enum class MsgType : uint8_t {
  kPing = 1,             ///< liveness probe; body echoed back
  kStoreDescriptor = 2,  ///< publish one partition descriptor into a bucket
  kProbeBucket = 3,      ///< range lookup: best match in one bucket
  kStorePartition = 4,   ///< materialize partition tuples at the holder
  kFetchPartition = 5,   ///< fetch a materialized partition's tuples
  kMetrics = 6,          ///< single-line JSON metrics snapshot
  // Live-ring membership (DESIGN.md §9). All of these carry
  // MemberEntry lists encoded by rpc/membership.h.
  kJoin = 7,             ///< joiner announces itself; reply = full view
  kLeave = 8,            ///< graceful departure announcement
  kNotify = 9,           ///< Chord notify: "I may be your predecessor"
  kGetNeighbors = 10,    ///< stabilize query: predecessor/self/successor
  kGossip = 11,          ///< push-pull view exchange; reply = full view
  kPullBuckets = 12,     ///< joiner pulls the descriptors of an id arc
  kHandoff = 13,         ///< bulk descriptor transfer (leave / repair)
  kMultiOp = 14,         ///< batch of data-path ops in one round trip
};

/// Human-readable name ("ping", "store_descriptor", ...).
const char* MsgTypeName(MsgType t);

/// True iff `raw` is a registered message type.
bool IsKnownMsgType(uint8_t raw);

/// \brief Fixed part of every envelope.
struct RpcHeader {
  uint64_t call_id = 0;
  MsgType type = MsgType::kPing;
  bool is_response = false;
  /// Outcome of the call; meaningful on responses only (requests
  /// always carry kOk). A non-OK response's body is the error message.
  StatusCode status = StatusCode::kOk;
};

/// \brief A decoded envelope: header + raw body bytes.
struct RpcEnvelope {
  RpcHeader header;
  std::string body;
};

/// Current envelope version byte.
inline constexpr uint8_t kEnvelopeVersion = 1;

/// \brief Serializes header + body into one frame payload.
std::string EncodeEnvelope(const RpcHeader& header, std::string_view body);

/// \brief The reply envelope to `request`: same call id and type, the
/// response flag set, and either the handler's body under kOk or its
/// error's code with the message as the body.
std::string EncodeResponse(const RpcHeader& request,
                           const Result<std::string>& response);

/// \brief Parses a frame payload. Rejects unknown versions, unknown
/// message types, and unknown status codes with InvalidArgument — a
/// hostile or corrupt envelope never reaches a handler.
Result<RpcEnvelope> DecodeEnvelope(std::string_view payload);

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_MESSAGE_H_
