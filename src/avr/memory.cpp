#include "avr/memory.hpp"

#include "avr/io.hpp"

namespace mavr::avr {

void ProgramMemory::erase() {
  std::fill(words_.begin(), words_.end(), std::uint16_t{0xFFFF});
  ++generation_;
}

void ProgramMemory::program(std::span<const std::uint8_t> image) {
  MAVR_REQUIRE(image.size() <= size_bytes(), "image exceeds flash size");
  for (std::size_t i = 0; i < image.size(); ++i) {
    const std::size_t word_index = i / 2;
    std::uint16_t w = words_[word_index];
    if ((i & 1) == 0) {
      w = static_cast<std::uint16_t>((w & 0xFF00) | image[i]);
    } else {
      w = static_cast<std::uint16_t>((w & 0x00FF) | (image[i] << 8));
    }
    words_[word_index] = w;
  }
  ++generation_;
}

void ProgramMemory::program_page(std::uint32_t byte_addr,
                                 std::span<const std::uint8_t> page) {
  MAVR_REQUIRE(byte_addr % 2 == 0, "page address must be even");
  MAVR_REQUIRE(byte_addr + page.size() <= size_bytes(),
               "page exceeds flash size");
  for (std::size_t i = 0; i < page.size(); ++i) {
    const std::size_t abs = byte_addr + i;
    const std::size_t word_index = abs / 2;
    std::uint16_t w = words_[word_index];
    if ((abs & 1) == 0) {
      w = static_cast<std::uint16_t>((w & 0xFF00) | page[i]);
    } else {
      w = static_cast<std::uint16_t>((w & 0x00FF) | (page[i] << 8));
    }
    words_[word_index] = w;
  }
  ++generation_;
}

void ProgramMemory::read(std::uint32_t byte_addr,
                         std::span<std::uint8_t> out) const {
  MAVR_REQUIRE(out.size() <= size_bytes() &&
                   byte_addr <= size_bytes() - out.size(),
               "flash read beyond end of flash");
  if (out.empty()) return;
  const std::uint16_t* src = words_.data() + byte_addr / 2;
  std::uint8_t* dst = out.data();
  std::size_t n = out.size();
  if ((byte_addr & 1) != 0) {  // odd start: the high byte of the first word
    *dst++ = static_cast<std::uint8_t>(*src++ >> 8);
    --n;
  }
  const std::size_t whole = n / 2;
  for (std::size_t i = 0; i < whole; ++i) {
    const std::uint16_t w = src[i];
    dst[2 * i] = static_cast<std::uint8_t>(w & 0xFF);
    dst[2 * i + 1] = static_cast<std::uint8_t>(w >> 8);
  }
  if ((n & 1) != 0) dst[n - 1] = static_cast<std::uint8_t>(src[whole] & 0xFF);
}

support::Bytes ProgramMemory::dump() const {
  support::Bytes out(size_bytes());
  read(0, out);
  return out;
}

support::Bytes DataMemory::snapshot(std::uint32_t addr,
                                    std::uint32_t count) const {
  support::Bytes out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(raw(addr + i));
  return out;
}

void DataMemory::clear() { std::fill(bytes_.begin(), bytes_.end(), 0); }

}  // namespace mavr::avr
