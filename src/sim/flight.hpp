// Minimal fixed-wing flight dynamics feeding the simulated sensors.
//
// Purpose in the reproduction: make the paper's failure modes *observable*
// — a stalled control loop (traditional ROP smashing the stack) lets the
// attitude diverge until the airframe departs controlled flight, while the
// stealthy attack keeps the loop (and the flight) alive as the attacker
// skews the gyro calibration.
#pragma once

#include <cstdint>

#include "sim/board.hpp"
#include "support/rng.hpp"

namespace mavr::sim {

struct FlightState {
  double roll_deg = 0;      ///< bank angle
  double roll_rate_dps = 0; ///< what the gyro measures
  double disturbance = 0;   ///< slowly varying gust term
  bool departed = false;    ///< |roll| exceeded the safe envelope
};

/// Integrates a 1-DOF roll model and exchanges data with the board:
/// servo command in, gyro reading out.
class FlightModel {
 public:
  explicit FlightModel(Board& board);

  /// Advances the airframe by `dt_s` seconds and updates the board's gyro
  /// inputs from the new state.
  void step(double dt_s);

  const FlightState& state() const { return state_; }

  /// Gyro counts the sensor reports for the current roll rate
  /// (16 counts per deg/s, the scale the firmware's P loop assumes).
  std::int16_t gyro_counts() const;

 private:
  Board& board_;
  FlightState state_;
  support::Rng gust_rng_;  ///< unbiased gust draws, fixed seed
};

}  // namespace mavr::sim
