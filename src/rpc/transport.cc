#include "rpc/transport.h"

#include "common/json.h"

namespace p2prange {
namespace rpc {

std::string RpcStats::ToJson() const {
  std::string out = "{";
  out += "\"requests_sent\":" + std::to_string(requests_sent);
  out += ",\"responses_received\":" + std::to_string(responses_received);
  out += ",\"requests_served\":" + std::to_string(requests_served);
  out += ",\"timeouts\":" + std::to_string(timeouts);
  out += ",\"retransmits\":" + std::to_string(retransmits);
  out += ",\"connect_failures\":" + std::to_string(connect_failures);
  out += ",\"frame_errors\":" + std::to_string(frame_errors);
  out += ",\"connections_opened\":" + std::to_string(connections_opened);
  out += ",\"connections_closed\":" + std::to_string(connections_closed);
  out += ",\"open_connections\":" + std::to_string(open_connections);
  out += ",\"accepts_shed\":" + std::to_string(accepts_shed);
  out += ",\"slow_readers_evicted\":" + std::to_string(slow_readers_evicted);
  out += ",\"idle_closed\":" + std::to_string(idle_closed);
  out += ",\"bytes_in\":" + std::to_string(bytes_in);
  out += ",\"bytes_out\":" + std::to_string(bytes_out);
  out += "}";
  return out;
}

std::string NetworkStatsToJson(const NetworkStats& s) {
  std::string out = "{";
  out += "\"messages\":" + std::to_string(s.messages);
  out += ",\"bytes\":" + std::to_string(s.bytes);
  out += ",\"total_latency_ms\":" + JsonDouble(s.total_latency_ms);
  out += ",\"failed_deliveries\":" + std::to_string(s.failed_deliveries);
  out += ",\"lost_messages\":" + std::to_string(s.lost_messages);
  out += "}";
  return out;
}

}  // namespace rpc
}  // namespace p2prange
