// Ground control station model (paper Fig. 3).
//
// Talks MAVLink to the board over its telemetry USART. Doubles as the
// *malicious* ground station of the attack scenario: Attack payloads are
// just packets sent through the same interface.
//
// Also implements the paper's detectability criterion: the GCS watches the
// telemetry stream for gaps and garbage — a traditional (non-stealthy) ROP
// attack makes the stream stop, a stealthy one does not.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"

namespace mavr::sim {

class GroundStation {
 public:
  explicit GroundStation(Board& board) : board_(board) {}

  /// Sends one MAVLink packet to the UAV.
  void send(const mavlink::Packet& packet);

  /// Convenience: heartbeat, PARAM_SET and raw payload senders.
  void send_heartbeat();
  void send_param_set(const mavlink::ParamSet& msg);
  /// Sends a PARAM_SET-framed packet with an arbitrary payload — the
  /// attacker's oversized-message capability (paper §IV-B).
  void send_raw_param_set(const support::Bytes& payload);

  /// Drains the telemetry line and parses everything received.
  std::vector<mavlink::Packet> poll();

  /// Most recent RAW_IMU seen (what the operator's instruments display).
  const std::optional<mavlink::RawImu>& last_imu() const { return last_imu_; }

  /// Packets received so far.
  std::uint64_t packets_received() const { return packets_received_; }

  /// Telemetry health: bytes that failed to parse (framing garbage).
  std::uint64_t garbage_bytes() const {
    return parser_.dropped_bytes() + parser_.crc_errors();
  }

 private:
  Board& board_;
  std::uint8_t seq_ = 0;
  mavlink::Parser parser_;
  std::optional<mavlink::RawImu> last_imu_;
  std::uint64_t packets_received_ = 0;
};

}  // namespace mavr::sim
