#include "rpc/message.h"

#include "wire/serde.h"

namespace p2prange {
namespace rpc {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kStoreDescriptor:
      return "store_descriptor";
    case MsgType::kProbeBucket:
      return "probe_bucket";
    case MsgType::kStorePartition:
      return "store_partition";
    case MsgType::kFetchPartition:
      return "fetch_partition";
    case MsgType::kMetrics:
      return "metrics";
    case MsgType::kJoin:
      return "join";
    case MsgType::kLeave:
      return "leave";
    case MsgType::kNotify:
      return "notify";
    case MsgType::kGetNeighbors:
      return "get_neighbors";
    case MsgType::kGossip:
      return "gossip";
    case MsgType::kPullBuckets:
      return "pull_buckets";
    case MsgType::kHandoff:
      return "handoff";
    case MsgType::kMultiOp:
      return "multi_op";
  }
  return "unknown";
}

bool IsKnownMsgType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(MsgType::kPing) &&
         raw <= static_cast<uint8_t>(MsgType::kMultiOp);
}

std::string EncodeEnvelope(const RpcHeader& header, std::string_view body) {
  wire::Encoder enc;
  enc.PutU8(kEnvelopeVersion);
  enc.PutU8(static_cast<uint8_t>(header.type));
  enc.PutU8(header.is_response ? 1 : 0);
  enc.PutU8(static_cast<uint8_t>(header.status));
  enc.PutVarint(header.call_id);
  std::string out = enc.Take();
  out.append(body.data(), body.size());
  return out;
}

std::string EncodeResponse(const RpcHeader& request,
                           const Result<std::string>& response) {
  RpcHeader header;
  header.call_id = request.call_id;
  header.type = request.type;
  header.is_response = true;
  if (!response.ok()) {
    header.status = response.status().code();
    return EncodeEnvelope(header, response.status().message());
  }
  return EncodeEnvelope(header, *response);
}

Result<RpcEnvelope> DecodeEnvelope(std::string_view payload) {
  wire::Decoder dec(payload);
  ASSIGN_OR_RETURN(const uint8_t version, dec.U8());
  if (version != kEnvelopeVersion) {
    return Status::InvalidArgument("unknown envelope version " +
                                   std::to_string(version));
  }
  ASSIGN_OR_RETURN(const uint8_t raw_type, dec.U8());
  if (!IsKnownMsgType(raw_type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(raw_type));
  }
  ASSIGN_OR_RETURN(const uint8_t flags, dec.U8());
  if (flags > 1) {
    return Status::InvalidArgument("invalid envelope flags " +
                                   std::to_string(flags));
  }
  ASSIGN_OR_RETURN(const uint8_t raw_status, dec.U8());
  if (raw_status > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(raw_status));
  }
  RpcEnvelope env;
  ASSIGN_OR_RETURN(env.header.call_id, dec.Varint());
  env.header.type = static_cast<MsgType>(raw_type);
  env.header.is_response = flags == 1;
  env.header.status = static_cast<StatusCode>(raw_status);
  env.body.assign(payload.substr(payload.size() - dec.remaining()));
  return env;
}

}  // namespace rpc
}  // namespace p2prange
