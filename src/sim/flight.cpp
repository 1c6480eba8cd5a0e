#include "sim/flight.hpp"

#include <cmath>

namespace mavr::sim {

namespace {
constexpr double kCountsPerDps = 16.0;
constexpr double kServoAuthorityDps = 80.0;  // full deflection roll accel
constexpr double kDamping = 2.0;
constexpr double kDepartureDeg = 75.0;
constexpr std::uint64_t kGustSeed = 42;
}  // namespace

FlightModel::FlightModel(Board& board) : board_(board), gust_rng_(kGustSeed) {}

void FlightModel::step(double dt_s) {
  // Servo channel 0 commands roll: 128 = neutral.
  const double deflection = (static_cast<double>(board_.servo(0).value()) -
                             128.0) / 128.0;

  // Slowly varying gust disturbance, uniform on [-1, 1). The previous
  // ad-hoc xorshift reduced its state `% 2001`, which is both modulo-biased
  // and correlated in the low bits; Rng::unit() draws from the high bits of
  // an unbiased stream and stays deterministic for a fixed seed.
  const double gust = 2.0 * gust_rng_.unit() - 1.0;
  state_.disturbance += (gust * 5.0 - state_.disturbance) * 0.1;

  // The firmware's controller *subtracts* measured rate from the setpoint
  // and deflects accordingly, so positive deflection must damp positive
  // rate: rate' = disturbance - authority*deflection - damping*rate.
  const double accel = state_.disturbance -
                       kServoAuthorityDps * deflection -
                       kDamping * state_.roll_rate_dps;
  state_.roll_rate_dps += accel * dt_s;
  state_.roll_deg += state_.roll_rate_dps * dt_s;
  if (std::abs(state_.roll_deg) > kDepartureDeg) state_.departed = true;

  board_.set_gyro(0, gyro_counts());
  board_.set_gyro(1, 0);
  board_.set_gyro(2, 0);
  board_.set_acc(0, static_cast<std::int16_t>(state_.roll_deg * 10));
  board_.set_acc(1, 0);
  board_.set_acc(2, 1000);
}

std::int16_t FlightModel::gyro_counts() const {
  double counts = state_.roll_rate_dps * kCountsPerDps;
  if (counts > 32000) counts = 32000;
  if (counts < -32000) counts = -32000;
  return static_cast<std::int16_t>(counts);
}

}  // namespace mavr::sim
