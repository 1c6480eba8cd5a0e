#include "toolchain/intelhex.hpp"

#include <algorithm>
#include <array>

#include "support/error.hpp"

namespace mavr::toolchain {

namespace {

constexpr char kDigits[] = "0123456789ABCDEF";

// Nibble value of every character; 0xFF marks a non-hex-digit, so OR-ing
// decoded nibbles and testing the high bits validates a whole record at once.
constexpr std::array<std::uint8_t, 256> kNibble = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(0xFF);
  for (std::uint8_t i = 0; i < 10; ++i) t['0' + i] = i;
  for (std::uint8_t i = 0; i < 6; ++i) {
    t['A' + i] = static_cast<std::uint8_t>(10 + i);
    t['a' + i] = static_cast<std::uint8_t>(10 + i);
  }
  return t;
}();

// Decodes `n` bytes from the 2n hex digits at `p` into `out` and returns
// their sum mod 256. Every nibble is OR-ed into `bad`, whose high bits are
// set once any character was not a hex digit.
std::uint8_t decode_bytes(const char* p, std::uint8_t* out, std::size_t n,
                          std::uint8_t& bad) {
  std::uint8_t sum = 0;
  std::uint8_t nibbles = 0;
  for (std::size_t i = 0; i < n; ++i, p += 2) {
    const std::uint8_t hi = kNibble[static_cast<unsigned char>(p[0])];
    const std::uint8_t lo = kNibble[static_cast<unsigned char>(p[1])];
    nibbles |= hi | lo;
    const auto b = static_cast<std::uint8_t>((hi << 4) | (lo & 0x0F));
    out[i] = b;
    sum = static_cast<std::uint8_t>(sum + b);
  }
  bad |= nibbles;
  return sum;
}

char* put_byte(char* p, std::uint8_t b) {
  p[0] = kDigits[b >> 4];
  p[1] = kDigits[b & 0x0F];
  return p + 2;
}

// Writes one record at `p` and returns the end of it.
char* put_record(char* p, std::uint8_t type, std::uint16_t addr,
                 std::span<const std::uint8_t> payload) {
  const std::uint8_t head[4] = {static_cast<std::uint8_t>(payload.size()),
                                static_cast<std::uint8_t>(addr >> 8),
                                static_cast<std::uint8_t>(addr & 0xFF), type};
  *p++ = ':';
  std::uint8_t sum = 0;
  for (std::uint8_t b : head) {
    p = put_byte(p, b);
    sum = static_cast<std::uint8_t>(sum + b);
  }
  for (std::uint8_t b : payload) {
    p = put_byte(p, b);
    sum = static_cast<std::uint8_t>(sum + b);
  }
  p = put_byte(p, static_cast<std::uint8_t>(0x100 - sum));
  *p++ = '\n';
  return p;
}

}  // namespace

std::string intel_hex_encode(const support::Bytes& data, std::uint32_t base,
                             std::size_t record_len) {
  MAVR_REQUIRE(record_len >= 1 && record_len <= 255, "bad record length");
  // Records are written in place into a string sized for the worst case
  // and trimmed at the end: two digits per byte plus at most 16 characters
  // of framing per record. A 64 KiB bank boundary splits at most one data
  // record and adds one type-04 record; then there is the EOF record.
  const std::size_t banks = data.size() / 0x10000 + 2;
  std::string out(2 * data.size() +
                      16 * (data.size() / record_len + 1 + 2 * banks + 1),
                  '\0');
  char* p = out.data();
  // Current extended linear address (bits 16..31); bank 0 needs no record.
  std::uint32_t high = 0;
  for (std::size_t pos = 0; pos < data.size();) {
    const std::uint32_t addr = base + static_cast<std::uint32_t>(pos);
    if ((addr >> 16) != high) {
      high = addr >> 16;
      const std::uint8_t ext[2] = {static_cast<std::uint8_t>(high >> 8),
                                   static_cast<std::uint8_t>(high & 0xFF)};
      p = put_record(p, 0x04, 0, ext);
    }
    // Do not let a record cross a 64 KiB boundary.
    std::size_t len = std::min(record_len, data.size() - pos);
    const std::uint32_t room = 0x10000 - (addr & 0xFFFF);
    len = std::min<std::size_t>(len, room);
    p = put_record(p, 0x00, static_cast<std::uint16_t>(addr & 0xFFFF),
                   std::span(data).subspan(pos, len));
    pos += len;
  }
  p = put_record(p, 0x01, 0, {});
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

HexImage intel_hex_decode(const std::string& text, std::size_t max_bytes) {
  HexImage image;
  bool base_set = false;
  std::uint32_t high = 0;
  const char* const chars = text.data();
  const std::size_t size = text.size();
  // Payload of the record being decoded when it is not image data.
  std::uint8_t payload_buf[255] = {};
  std::size_t pos = 0;
  while (pos < size) {
    const char c = chars[pos];
    if (c == '\n' || c == '\r' || c == ' ') {
      ++pos;
      continue;
    }
    if (c != ':') throw support::DataError("HEX missing ':'");
    ++pos;
    // One bounds check per record: the length byte sizes the rest of it.
    if (size - pos < 2) throw support::DataError("HEX truncated");
    std::uint8_t bad = 0;
    std::uint8_t head[4] = {};
    std::uint8_t sum = decode_bytes(chars + pos, head, 1, bad);
    if (bad & 0xF0) throw support::DataError("HEX bad digit");
    const std::uint8_t len = head[0];
    if (size - pos < 2 * (std::size_t{len} + 5)) {
      throw support::DataError("HEX truncated");
    }
    sum = static_cast<std::uint8_t>(
        sum + decode_bytes(chars + pos + 2, head + 1, 3, bad));
    const std::uint8_t type = head[3];

    // A data record's payload is decoded straight into the image when it
    // lands inside the bound; anything else goes to the stack buffer.
    // Address errors are raised only once the record's digits and checksum
    // verify, so a corrupted record reports as corrupted.
    std::uint8_t* payload = payload_buf;
    std::uint32_t addr = 0;
    std::size_t end = 0;
    if (type == 0x00) {
      addr = high + ((head[1] << 8) | head[2]);
      if (!base_set) {
        image.base = addr;
        base_set = true;
      }
      end = std::size_t{addr - image.base} + len;
      if (addr >= image.base && end <= max_bytes) {
        if (image.data.size() < end) image.data.resize(end, 0xFF);
        payload = image.data.data() + (end - len);
      }
    }
    sum = static_cast<std::uint8_t>(
        sum + decode_bytes(chars + pos + 8, payload, len, bad));
    std::uint8_t checksum = 0;
    sum = static_cast<std::uint8_t>(
        sum + decode_bytes(chars + pos + 8 + 2 * len, &checksum, 1, bad));
    pos += 2 * (std::size_t{len} + 5);
    if (bad & 0xF0) throw support::DataError("HEX bad digit");
    if (sum != 0) throw support::DataError("HEX checksum mismatch");

    switch (type) {
      case 0x00:
        if (addr < image.base) throw support::DataError("HEX going backwards");
        // Checked before the image grew: a few records with wild addresses
        // must not be able to force a multi-GiB gap fill.
        if (end > max_bytes) {
          throw HexExtentError("HEX image extends past " +
                                   std::to_string(max_bytes) + " bytes",
                               end);
        }
        break;
      case 0x01:
        return image;
      case 0x02:
        if (len != 2) throw support::DataError("bad type-02 record");
        high = (static_cast<std::uint32_t>(payload[0]) << 12) |
               (static_cast<std::uint32_t>(payload[1]) << 4);
        break;
      case 0x04:
        if (len != 2) throw support::DataError("bad type-04 record");
        high = (static_cast<std::uint32_t>(payload[0]) << 24) |
               (static_cast<std::uint32_t>(payload[1]) << 16);
        break;
      case 0x03:
      case 0x05:
        break;  // start-address records: ignored
      default:
        throw support::DataError("unknown HEX record type");
    }
  }
  throw support::DataError("HEX missing EOF record");
}

}  // namespace mavr::toolchain
