#include "sim/ground.hpp"

namespace mavr::sim {

namespace {
/// MAVLink system id of the ground station (255 by convention).
constexpr std::uint8_t kSysid = 255;
}  // namespace

void GroundStation::send(const mavlink::Packet& packet) {
  const support::Bytes bytes = mavlink::encode(packet);
  board_.telemetry().host_send(bytes);
}

void GroundStation::send_heartbeat() {
  mavlink::Heartbeat hb;
  send(hb.to_packet(kSysid, seq_++));
}

void GroundStation::send_param_set(const mavlink::ParamSet& msg) {
  send(msg.to_packet(kSysid, seq_++));
}

void GroundStation::send_raw_param_set(const support::Bytes& payload) {
  mavlink::Packet p;
  p.sysid = kSysid;
  p.seq = seq_++;
  p.compid = 1;
  p.msgid = static_cast<std::uint8_t>(mavlink::MsgId::ParamSet);
  p.payload = payload;
  send(p);
}

std::vector<mavlink::Packet> GroundStation::poll() {
  const support::Bytes rx = board_.telemetry().host_take_tx();
  std::vector<mavlink::Packet> packets = parser_.push(rx);
  for (const mavlink::Packet& p : packets) {
    ++packets_received_;
    if (p.id() == mavlink::MsgId::RawImu) {
      last_imu_ = mavlink::RawImu::from_packet(p);
    }
  }
  return packets;
}

}  // namespace mavr::sim
