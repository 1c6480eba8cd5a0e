#include "support/crc.hpp"

#include <array>

namespace mavr::support {

namespace {

// Slicing-by-8 tables for the reflected CRC-32 polynomial. kCrc32[0] is the
// classic one-byte table; kCrc32[k][i] is the CRC of byte i followed by k
// zero bytes, so eight table lookups fold eight input bytes at once.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = make_crc32_tables();

// Byte-wise little-endian load; compilers fold it into one 32-bit load.
std::uint32_t load_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc16::update(std::uint8_t byte) {
  std::uint8_t tmp = byte ^ static_cast<std::uint8_t>(crc_ & 0xFF);
  tmp ^= static_cast<std::uint8_t>(tmp << 4);
  crc_ = static_cast<std::uint16_t>((crc_ >> 8) ^ (tmp << 8) ^ (tmp << 3) ^
                                    (tmp >> 4));
}

void Crc16::update(std::span<const std::uint8_t> data) {
  for (std::uint8_t b : data) update(b);
}

std::uint16_t crc16_x25(std::span<const std::uint8_t> data) {
  Crc16 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::uint8_t byte) {
  crc_ = (crc_ >> 8) ^ kCrc32[0][(crc_ ^ byte) & 0xFF];
}

void Crc32::update(std::span<const std::uint8_t> data) {
  std::uint32_t c = crc_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_u32_le(p) ^ c;
    const std::uint32_t hi = load_u32_le(p + 4);
    c = kCrc32[7][lo & 0xFF] ^ kCrc32[6][(lo >> 8) & 0xFF] ^
        kCrc32[5][(lo >> 16) & 0xFF] ^ kCrc32[4][lo >> 24] ^
        kCrc32[3][hi & 0xFF] ^ kCrc32[2][(hi >> 8) & 0xFF] ^
        kCrc32[1][(hi >> 16) & 0xFF] ^ kCrc32[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = (c >> 8) ^ kCrc32[0][(c ^ *p) & 0xFF];
  crc_ = c;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace mavr::support
