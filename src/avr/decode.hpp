// AVR instruction decoder: 16-bit opcode word(s) → Instr.
//
// Encodings follow the Atmel AVR instruction set manual; the assembler's
// encoder (toolchain/encode.hpp) is the exact inverse, and the round trip is
// covered by tests/avr/decode_test.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "avr/instr.hpp"
#include "support/bytes.hpp"

namespace mavr::avr {

/// Decodes the instruction whose first word is `first`; `second` must hold
/// the following flash word (used only by 32-bit encodings). Returns an
/// Instr with op == Op::Invalid for unimplemented/reserved encodings.
Instr decode(std::uint16_t first, std::uint16_t second);

/// Linear sweep over little-endian code: decodes every instruction from
/// offset 0, advancing by size_words, and calls `fn(byte_offset, instr)`.
/// A 32-bit encoding whose second word lies past the end decodes with a
/// second word of 0. AVR's two-byte alignment makes one sweep reliable:
/// there are no overlapping instruction streams at odd offsets.
template <class Fn>
void sweep(std::span<const std::uint8_t> code, Fn&& fn) {
  std::uint32_t pos = 0;
  while (pos + 2 <= code.size()) {
    const std::uint16_t w1 = support::load_u16_le(code, pos);
    const std::uint16_t w2 =
        pos + 4 <= code.size() ? support::load_u16_le(code, pos + 2) : 0;
    const Instr in = decode(w1, w2);
    fn(pos, in);
    pos += in.size_words * 2u;
  }
}

}  // namespace mavr::avr
