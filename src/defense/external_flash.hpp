// External SPI flash chip model (M95M02-DR, paper §V-A1).
//
// Stores the preprocessed firmware container (symbol blob + original
// binary). Deliberately sized to the application processor's flash: the
// paper notes this creates a memory-exhaustion failure mode when the
// symbol table plus a near-maximal binary overflow the chip, and
// recommends a larger part for production — a behaviour the tests
// exercise.
#pragma once

#include <cstdint>
#include <span>

#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace mavr::defense {

class ExternalFlash {
 public:
  /// Default capacity matches the ATmega2560 program flash (256 KiB).
  explicit ExternalFlash(std::uint32_t capacity_bytes = 256 * 1024)
      : capacity_(capacity_bytes) {}

  std::uint32_t capacity() const { return capacity_; }
  std::uint32_t used() const {
    return static_cast<std::uint32_t>(data_.size());
  }

  /// Throws support::PreconditionError when a `bytes`-long container does
  /// not fit — the paper's exhaustion failure mode.
  void require_fits(std::uint64_t bytes) const {
    MAVR_REQUIRE(bytes <= capacity_,
                 "external flash exhausted: symbol table + binary exceed "
                 "chip capacity (use a larger part in production)");
  }

  /// Replaces the chip contents (host flashing path, paper §VI-B2).
  /// Throws as require_fits() when the container does not fit.
  void store(std::span<const std::uint8_t> bytes) {
    require_fits(bytes.size());
    data_.assign(bytes.begin(), bytes.end());
  }

  /// Random-access read — the property that lets the master process the
  /// binary in a streaming fashion (paper §VI-B3). Reads pass through the
  /// attached fault plane (bit flips / stuck bytes) when one is armed.
  std::uint8_t read(std::uint32_t addr) const {
    MAVR_REQUIRE(addr < data_.size(), "external flash read out of range");
    const std::uint8_t value = data_[addr];
    return faults_ ? faults_->filter_read(value) : value;
  }

  /// Reads the whole chip — the master's container fetch path, subject to
  /// read faults. With an armed plane every byte passes through it in
  /// address order, exactly as a read() loop would, so distinct calls see
  /// distinct fault draws (which is what makes a bounded re-read retry
  /// meaningful). Without one the contents are copied in bulk.
  support::Bytes read_all() const {
    if (faults_ == nullptr || !faults_->armed()) return data_;
    support::Bytes out(data_.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = faults_->filter_read(data_[i]);
    }
    return out;
  }

  /// Attaches (or clears, with nullptr) a fault-injection plane on the SPI
  /// read path. The plane must outlive the attachment.
  void attach_faults(support::FaultPlane* plane) { faults_ = plane; }

  /// Pristine chip contents (host/test introspection — not the faulted
  /// hardware read path).
  const support::Bytes& contents() const { return data_; }
  bool empty() const { return data_.empty(); }

 private:
  std::uint32_t capacity_;
  support::Bytes data_;
  support::FaultPlane* faults_ = nullptr;
};

}  // namespace mavr::defense
