// Intel HEX encoding/decoding.
//
// The flash utility uploads firmware as Intel HEX; MAVR's preprocessor
// prepends the symbol blob to the HEX file before it is written to the
// external flash chip (paper §VI-B2). 256 KiB images need extended linear
// address (type 04) records; type 02 segment records are accepted on parse.
#pragma once

#include <cstdint>
#include <string>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace mavr::toolchain {

/// Encodes `data` (starting at address `base`) as Intel HEX text with
/// `record_len`-byte data records.
std::string intel_hex_encode(const support::Bytes& data, std::uint32_t base = 0,
                             std::size_t record_len = 16);

/// Decoded HEX contents: a flat byte image and its base address.
struct HexImage {
  support::Bytes data;
  std::uint32_t base = 0;
};

/// Default decode bound: the AVR's 24-bit program byte address space
/// (RAMPZ:Z), far above any part's flash.
inline constexpr std::size_t kHexMaxBytes = std::size_t{1} << 24;

/// Thrown by intel_hex_decode when a data record reaches past `max_bytes`
/// from the image base; `extent()` is the end offset that record asked for.
class HexExtentError : public support::DataError {
 public:
  HexExtentError(const std::string& what, std::uint64_t extent)
      : DataError(what), extent_(extent) {}
  std::uint64_t extent() const { return extent_; }

 private:
  std::uint64_t extent_;
};

/// Parses Intel HEX text. Gaps between records are filled with 0xFF.
/// Throws support::DataError on malformed records or checksum mismatch, and
/// HexExtentError (before allocating) when the decoded image would exceed
/// `max_bytes`.
HexImage intel_hex_decode(const std::string& text,
                          std::size_t max_bytes = kHexMaxBytes);

}  // namespace mavr::toolchain
