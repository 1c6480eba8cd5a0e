// One definition of the AVR instruction semantics, shared by every driver:
// the interpreter (Cpu::step_impl), the superblock executor (Cpu::run_tier)
// with its fused pairs, and the superblock translator (tier.cpp).
//
// Three parts:
//  * op tables (X-macros) giving each op's base cycle cost and the
//    operand fields its semantics read — the interpreter's switch rows,
//    the translator's straight-line rows, the TierOpKind enum and the
//    executor's dispatch table are all generated from them;
//  * inline semantic functions over (ram, sreg&, operands). Register ops
//    touch only the register file and SREG; data-space ops take a memory
//    port, so the interpreter routes them through load_mem/store_mem
//    (device dispatch, wrap, tracer hooks) while the tier passes a plain
//    RAM port behind its guards;
//  * the shared addressing pieces: pointer-addressed effective addresses,
//    the batched return-address push/pop, jump targets and skip targets.
//
// Adding an op: one row in the matching table plus its semantic function
// (DESIGN.md §16 has the recipe). Adding a fused pair: one row in
// MAVR_FUSED_PAIRS.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "avr/instr.hpp"
#include "avr/mcu.hpp"
#include "avr/memory.hpp"

// --- Op tables --------------------------------------------------------------
// Every row starts X(Name, cycles, ...). Cycles are the base cost: the
// not-taken cost for branches and skips (taken adds one), the 2-byte-PC
// cost for calls and returns (a 3-byte PC adds the last column).

/// Register ops: register file and SREG only, never leave a block, fusable.
/// X(Name, cycles, Instr field read as operand b)
#define MAVR_REG_OPS(X)                                                      \
  X(Add, 1, rr) X(Adc, 1, rr) X(Sub, 1, rr) X(Sbc, 1, rr) X(And, 1, rr)      \
  X(Or, 1, rr) X(Eor, 1, rr) X(Mov, 1, rr) X(Movw, 1, rr) X(Mul, 2, rr)      \
  X(Cp, 1, rr) X(Cpc, 1, rr) X(Ldi, 1, rr) X(Subi, 1, rr) X(Sbci, 1, rr)     \
  X(Andi, 1, rr) X(Ori, 1, rr) X(Cpi, 1, rr) X(Com, 1, rr) X(Neg, 1, rr)     \
  X(Inc, 1, rr) X(Dec, 1, rr) X(Swap, 1, rr) X(Asr, 1, rr) X(Lsr, 1, rr)     \
  X(Ror, 1, rr) X(Adiw, 2, rr) X(Sbiw, 2, rr) X(Bset, 1, bit)                \
  X(Bclr, 1, bit) X(Bst, 1, bit) X(Bld, 1, bit) X(Nop, 1, rr)

/// Pointer-addressed loads/stores, PUSH and POP: one effective-address
/// helper parameterised by pointer register and addressing mode.
/// X(Name, cycles, pointer low byte address, PtrMode, is_store, port)
/// `port` names the memory view the interpreter uses: `data` for program
/// accesses (tracer-visible), `stack` for stack traffic (not).
#define MAVR_PTR_OPS(X)                                                      \
  X(LdX, 2, 26, kPlain, false, data)                                        \
  X(LdXInc, 2, 26, kPostInc, false, data)                                   \
  X(LdXDec, 2, 26, kPreDec, false, data)                                    \
  X(LdYInc, 2, 28, kPostInc, false, data)                                   \
  X(LdYDec, 2, 28, kPreDec, false, data)                                    \
  X(LddY, 2, 28, kDisp, false, data)                                        \
  X(LdZInc, 2, 30, kPostInc, false, data)                                   \
  X(LdZDec, 2, 30, kPreDec, false, data)                                    \
  X(LddZ, 2, 30, kDisp, false, data)                                        \
  X(StX, 2, 26, kPlain, true, data)                                         \
  X(StXInc, 2, 26, kPostInc, true, data)                                    \
  X(StXDec, 2, 26, kPreDec, true, data)                                     \
  X(StYInc, 2, 28, kPostInc, true, data)                                    \
  X(StYDec, 2, 28, kPreDec, true, data)                                     \
  X(StdY, 2, 28, kDisp, true, data)                                         \
  X(StZInc, 2, 30, kPostInc, true, data)                                    \
  X(StZDec, 2, 30, kPreDec, true, data)                                     \
  X(StdZ, 2, 30, kDisp, true, data)                                         \
  X(Push, 2, kAddrSpl, kPostDec, true, stack)                               \
  X(Pop, 2, kAddrSpl, kPreInc, false, stack)

/// Program-memory loads. X(Name, cycles, RAMPZ-extended, into r0, Z+)
#define MAVR_FLASH_OPS(X)                                                    \
  X(LpmR0, 3, false, true, false) X(Lpm, 3, false, false, false)            \
  X(LpmInc, 3, false, false, true) X(ElpmR0, 3, true, true, false)          \
  X(Elpm, 3, true, false, false) X(ElpmInc, 3, true, false, true)

/// Static-address data transfer (the tier resolves the dispatch map for
/// these at translate time). X(Name, cycles)
#define MAVR_IO_OPS(X)                                                       \
  X(Lds, 2) X(Sts, 2) X(In, 1) X(Out, 1) X(Sbi, 2) X(Cbi, 2)

/// Control flow and the rest. X(Name, cycles, extra cycles with a 3-byte PC)
#define MAVR_FLOW_OPS(X)                                                     \
  X(Rjmp, 2, 0) X(Jmp, 3, 0) X(Ijmp, 2, 0) X(Eijmp, 2, 0) X(Rcall, 3, 1)    \
  X(Call, 4, 1) X(Icall, 3, 1) X(Eicall, 4, 0) X(Ret, 4, 1) X(Reti, 4, 1)   \
  X(Brbs, 1, 0) X(Brbc, 1, 0) X(Cpse, 1, 0) X(Sbrc, 1, 0) X(Sbrs, 1, 0)     \
  X(Sbic, 1, 0) X(Sbis, 1, 0) X(Sleep, 1, 0) X(Wdr, 1, 0) X(Spm, 1, 0)      \
  X(Break, 1, 0) X(Invalid, 1, 0)

/// Fused pairs: adjacent tier kinds the translator's peephole merges into
/// one dispatch. Each executes as the two halves' semantics back to back,
/// the second half reading its operands from the following op slot.
/// Chosen from measured pair frequencies in generated firmware; every
/// member is side-effect-free against the I/O bus, so a fused op never
/// exits mid-op. X(Fused, first kind, second kind)
#define MAVR_FUSED_PAIRS(X)                                                  \
  X(Lds2, LdsRam, LdsRam) X(Sts2, StsRam, StsRam) X(Ldi2, Ldi, Ldi)         \
  X(LdiAdd, Ldi, Add) X(LdsAdd, LdsRam, Add) X(LdsSub, LdsRam, Sub)         \
  X(AddSts, Add, StsRam) X(RorLdi, Ror, Ldi) X(AddAdc, Add, Adc)            \
  X(AddAdd, Add, Add) X(SubSbc, Sub, Sbc) X(SubiSbci, Subi, Sbci)           \
  X(AsrRor, Asr, Ror) X(RorAsr, Ror, Asr) X(LdsSts, LdsRam, StsRam)         \
  X(StsLds, StsRam, LdsRam)

namespace mavr::avr::isa {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;

// --- Cycle costs --------------------------------------------------------------

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Spm) + 1;

/// Base cycle cost per op for a 2-byte (index 0) and 3-byte (index 1) PC.
inline constexpr auto kOpCycles = [] {
  std::array<std::array<u8, kOpCount>, 2> t{};
  const auto set = [&](Op op, unsigned cyc, unsigned pc3_extra) {
    t[0][static_cast<std::size_t>(op)] = static_cast<u8>(cyc);
    t[1][static_cast<std::size_t>(op)] = static_cast<u8>(cyc + pc3_extra);
  };
#define MAVR_ISA_CYCLES(name, cyc, ...) set(Op::name, cyc, 0);
  MAVR_REG_OPS(MAVR_ISA_CYCLES)
  MAVR_PTR_OPS(MAVR_ISA_CYCLES)
  MAVR_FLASH_OPS(MAVR_ISA_CYCLES)
  MAVR_IO_OPS(MAVR_ISA_CYCLES)
#undef MAVR_ISA_CYCLES
#define MAVR_ISA_CYCLES(name, cyc, pc3) set(Op::name, cyc, pc3);
  MAVR_FLOW_OPS(MAVR_ISA_CYCLES)
#undef MAVR_ISA_CYCLES
  return t;
}();

static_assert(
    [] {
      for (const u8 c : kOpCycles[0]) {
        if (c == 0) return false;
      }
      return true;
    }(),
    "every Op needs a row in one of the op tables");

/// The cycle table for a core pushing `push_bytes`-byte return addresses.
constexpr const std::array<u8, kOpCount>& op_cycles(unsigned push_bytes) {
  return kOpCycles[push_bytes == 3 ? 1 : 0];
}

// --- SREG calculators ---------------------------------------------------------

constexpr u8 fb(SregBit bit) { return static_cast<u8>(1u << bit); }

// Flag groups recomputed per ALU class: cleared from a copy of SREG, the
// fresh bits OR-ed in, one write back.
inline constexpr u8 kArithFlags =
    fb(kH) | fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);
inline constexpr u8 kLogicFlags = fb(kV) | fb(kN) | fb(kZ) | fb(kS);
inline constexpr u8 kShiftFlags = fb(kC) | fb(kV) | fb(kN) | fb(kZ) | fb(kS);

constexpr u8 sreg_add(u8 sreg, u8 d, u8 r, u8 res) {
  // Branchless composition. `carries` is the full-adder carry-out vector,
  // the identity (d&r) | ((d|r) & ~res) — valid with any carry-in because
  // `res` already encodes it — so H and C are single bit extracts and V is
  // the textbook signed-overflow formula. Data-dependent flag bits are
  // close to random, so arithmetic beats branching on them.
  const unsigned carries = (d & r) | ((d | r) & ~unsigned{res});
  const unsigned v =
      ((d & r & ~unsigned{res}) | (~unsigned{d} & ~unsigned{r} & res)) >> 7;
  const unsigned n = res >> 7;
  const unsigned c = (carries >> 7) & 1;
  const unsigned h = (carries >> 3) & 1;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<u8>((sreg & ~unsigned{kArithFlags}) | (c << kC) |
                         (z << kZ) | (n << kN) | (v << kV) |
                         ((n ^ v) << kS) | (h << kH));
}

constexpr u8 sreg_sub(u8 sreg, u8 d, u8 r, u8 res, bool keep_z) {
  // Mirror of sreg_add with the borrow-out vector (~d&r) | ((~d|r)&res);
  // again `res` encodes the borrow-in, so H and C fall out as bit extracts.
  const unsigned nd = ~unsigned{d};
  const unsigned borrows = (nd & r) | ((nd | r) & res);
  const unsigned v =
      ((d & ~unsigned{r} & ~unsigned{res}) | (nd & r & res)) >> 7;
  const unsigned n = res >> 7;
  const unsigned c = (borrows >> 7) & 1;
  const unsigned h = (borrows >> 3) & 1;
  // SBC/SBCI/CPC only clear Z, never set it (multi-byte compare semantics):
  // with keep_z the old Z gates the new one.
  const unsigned zgate = keep_z ? (sreg >> kZ) & 1u : 1u;
  const unsigned z = res == 0 ? zgate : 0u;
  return static_cast<u8>((sreg & ~unsigned{kArithFlags}) | (c << kC) |
                         (z << kZ) | (n << kN) | (v << kV) |
                         ((n ^ v) << kS) | (h << kH));
}

constexpr u8 sreg_logic(u8 sreg, u8 res) {
  const unsigned n = res >> 7;
  const unsigned z = res == 0 ? 1u : 0u;
  return static_cast<u8>((sreg & ~unsigned{kLogicFlags}) | (z << kZ) |
                         (n << kN) | (n << kS));  // S = N ^ V with V = 0
}

/// Flag bits from a result plus its V and C (INC/DEC/NEG/COM/shifts).
constexpr u8 sreg_nvzc(u8 sreg, u8 clear, bool n, bool v, bool z, bool c) {
  return static_cast<u8>((sreg & ~clear) | (c << kC) | (z << kZ) |
                         (n << kN) | (v << kV) | ((n != v) << kS));
}

/// ADIW/SBIW: the 16-bit result, V/C from bit 15 of the operand.
constexpr u8 sreg_word(u8 sreg, u16 d, u16 res, bool add) {
  const bool d15 = (d >> 15) & 1, r15 = (res >> 15) & 1;
  const bool v = add ? (!d15 && r15) : (d15 && !r15);
  const bool c = add ? (!r15 && d15) : (r15 && !d15);
  return sreg_nvzc(sreg, kShiftFlags, r15, v, res == 0, c);
}

// --- Register ops ---------------------------------------------------------------
// Signature: (register file, live SREG, a = Rd, b = Rr or bit, k = immediate).

#define MAVR_ISA_REG_OP(name)                                                \
  inline void name([[maybe_unused]] u8* r, [[maybe_unused]] u8& s,          \
                   [[maybe_unused]] u8 a, [[maybe_unused]] u8 b,             \
                   [[maybe_unused]] u16 k)

constexpr u16 pair(const u8* r, u32 lo) {
  return static_cast<u16>(r[lo] | (r[lo + 1] << 8));
}
constexpr void set_pair(u8* r, u32 lo, u32 v) {
  r[lo] = static_cast<u8>(v & 0xFF);
  r[lo + 1] = static_cast<u8>((v >> 8) & 0xFF);
}

inline void add_into(u8* r, u8& s, u8 a, u8 v, unsigned carry) {
  const u8 d = r[a];
  r[a] = static_cast<u8>(d + v + carry);
  s = sreg_add(s, d, v, r[a]);
}
/// SUB-likes; `store` false for compares, `keep_z` for the chained forms.
inline void sub_into(u8* r, u8& s, u8 a, u8 v, unsigned borrow, bool store,
                     bool keep_z) {
  const u8 d = r[a];
  const u8 res = static_cast<u8>(d - v - borrow);
  if (store) r[a] = res;
  s = sreg_sub(s, d, v, res, keep_z);
}
inline void logic_into(u8* r, u8& s, u8 a, u8 res) {
  r[a] = res;
  s = sreg_logic(s, res);
}
/// ASR and ROR: bit 7 from `top`, C from the shifted-out bit, V = N ^ C.
inline void shift_right(u8* r, u8& s, u8 a, unsigned top) {
  const u8 d = r[a];
  const u8 res = static_cast<u8>((d >> 1) | top);
  r[a] = res;
  s = sreg_nvzc(s, kShiftFlags, res >> 7, ((res >> 7) ^ d) & 1, res == 0,
                d & 1);
}
inline void word_op(u8* r, u8& s, u8 a, u16 k, bool add) {
  const u16 d = pair(r, a);
  const u16 res = static_cast<u16>(add ? d + k : d - k);
  set_pair(r, a, res);
  s = sreg_word(s, d, res, add);
}

MAVR_ISA_REG_OP(Add) { add_into(r, s, a, r[b], 0); }
MAVR_ISA_REG_OP(Adc) { add_into(r, s, a, r[b], s & 1); }
MAVR_ISA_REG_OP(Sub) { sub_into(r, s, a, r[b], 0, true, false); }
MAVR_ISA_REG_OP(Sbc) { sub_into(r, s, a, r[b], s & 1, true, true); }
MAVR_ISA_REG_OP(Subi) { sub_into(r, s, a, static_cast<u8>(k), 0, true, false); }
MAVR_ISA_REG_OP(Sbci) {
  sub_into(r, s, a, static_cast<u8>(k), s & 1, true, true);
}
MAVR_ISA_REG_OP(Cp) { sub_into(r, s, a, r[b], 0, false, false); }
MAVR_ISA_REG_OP(Cpc) { sub_into(r, s, a, r[b], s & 1, false, true); }
MAVR_ISA_REG_OP(Cpi) { sub_into(r, s, a, static_cast<u8>(k), 0, false, false); }
MAVR_ISA_REG_OP(And) { logic_into(r, s, a, r[a] & r[b]); }
MAVR_ISA_REG_OP(Or) { logic_into(r, s, a, r[a] | r[b]); }
MAVR_ISA_REG_OP(Eor) { logic_into(r, s, a, r[a] ^ r[b]); }
MAVR_ISA_REG_OP(Andi) { logic_into(r, s, a, r[a] & static_cast<u8>(k)); }
MAVR_ISA_REG_OP(Ori) { logic_into(r, s, a, r[a] | static_cast<u8>(k)); }
MAVR_ISA_REG_OP(Mov) { r[a] = r[b]; }
MAVR_ISA_REG_OP(Movw) {
  r[a] = r[b];
  r[a + 1] = r[b + 1];
}
MAVR_ISA_REG_OP(Ldi) { r[a] = static_cast<u8>(k); }
MAVR_ISA_REG_OP(Mul) {
  const u16 res = static_cast<u16>(unsigned{r[a]} * r[b]);
  set_pair(r, 0, res);
  s = static_cast<u8>((s & ~(fb(kC) | fb(kZ))) | (((res >> 15) & 1) << kC) |
                      ((res == 0) << kZ));
}
MAVR_ISA_REG_OP(Com) {
  const u8 res = static_cast<u8>(~r[a]);
  r[a] = res;
  s = sreg_nvzc(s, kLogicFlags | fb(kC), res >> 7, false, res == 0, true);
}
MAVR_ISA_REG_OP(Neg) {
  const u8 d = r[a];
  const u8 res = static_cast<u8>(0 - d);
  r[a] = res;
  s = static_cast<u8>(
      sreg_nvzc(s, kArithFlags, res >> 7, res == 0x80, res == 0, res != 0) |
      ((((res | d) >> 3) & 1) << kH));
}
MAVR_ISA_REG_OP(Inc) {
  const u8 res = static_cast<u8>(r[a] + 1);
  r[a] = res;
  s = sreg_nvzc(s, kLogicFlags, res >> 7, res == 0x80, res == 0, s & 1);
}
MAVR_ISA_REG_OP(Dec) {
  const u8 res = static_cast<u8>(r[a] - 1);
  r[a] = res;
  s = sreg_nvzc(s, kLogicFlags, res >> 7, res == 0x7F, res == 0, s & 1);
}
MAVR_ISA_REG_OP(Swap) { r[a] = static_cast<u8>((r[a] << 4) | (r[a] >> 4)); }
MAVR_ISA_REG_OP(Asr) { shift_right(r, s, a, r[a] & 0x80); }
MAVR_ISA_REG_OP(Ror) { shift_right(r, s, a, (s & 1) << 7); }
MAVR_ISA_REG_OP(Lsr) { shift_right(r, s, a, 0); }
MAVR_ISA_REG_OP(Adiw) { word_op(r, s, a, k, true); }
MAVR_ISA_REG_OP(Sbiw) { word_op(r, s, a, k, false); }
MAVR_ISA_REG_OP(Bset) { s = static_cast<u8>(s | (1u << b)); }
MAVR_ISA_REG_OP(Bclr) { s = static_cast<u8>(s & ~(1u << b)); }
MAVR_ISA_REG_OP(Bst) {
  s = static_cast<u8>((s & ~fb(kT)) | (((r[a] >> b) & 1u) << kT));
}
MAVR_ISA_REG_OP(Bld) {
  r[a] = static_cast<u8>((r[a] & ~(1u << b)) | (((s >> kT) & 1u) << b));
}
MAVR_ISA_REG_OP(Nop) {}

// --- Data-space ops over a memory port --------------------------------------
// A port has load(addr) and store(addr, value). DataMemory is one (full
// bus path); RamPort is the tier's plain-RAM view.

struct RamPort {
  u8* ram;
  u8 load(u32 addr) const { return ram[addr]; }
  void store(u32 addr, u8 value) const { ram[addr] = value; }
};

template <class Port>
inline void load_reg(Port& m, u8* r, u8 a, u32 addr) {
  r[a] = m.load(addr);
}
template <class Port>
inline void store_reg(Port& m, const u8* r, u8 a, u32 addr) {
  m.store(addr, r[a]);
}
/// SBI/CBI: read-modify-write of one I/O bit.
template <class Port>
inline void write_io_bit(Port& m, u32 addr, u8 bit, bool set) {
  const u8 v = m.load(addr);
  m.store(addr, static_cast<u8>(set ? v | (1u << bit) : v & ~(1u << bit)));
}

/// The tier's plain-RAM static moves (LDS/STS/IN/OUT the translator proved
/// device-free), in register-op form so fused pairs can compose them.
MAVR_ISA_REG_OP(LdsRam) {
  RamPort m{r};
  load_reg(m, r, a, k);
}
MAVR_ISA_REG_OP(StsRam) {
  RamPort m{r};
  store_reg(m, r, a, k);
}

// --- Pointer-addressed access ---------------------------------------------------

enum class PtrMode : u8 { kPlain, kPostInc, kPreDec, kDisp, kPostDec, kPreInc };

/// Effective data-space address of a pointer-addressed access (PUSH/POP
/// use SP as the pointer). Computed before any state moves, so the tier
/// can guard it and side-exit untouched.
template <u32 kPtr, PtrMode kMode>
constexpr u16 ptr_addr(const u8* r, u16 q) {
  const u16 p = pair(r, kPtr);
  switch (kMode) {
    case PtrMode::kPreDec: return static_cast<u16>(p - 1);
    case PtrMode::kPreInc: return static_cast<u16>(p + 1);
    case PtrMode::kDisp: return static_cast<u16>(p + q);
    default: return p;
  }
}

/// The access at an accepted address, in hardware order: a pre-modified
/// pointer is written back before the access, a post-modified one after
/// (so LD/ST through a pointer that aliases its own register, or a PUSH
/// onto SPL, land exactly as on the part).
template <u32 kPtr, PtrMode kMode, bool kStore, class Port>
inline void ptr_access(Port& m, u8* r, u8 reg, u16 addr) {
  if constexpr (kMode == PtrMode::kPreDec || kMode == PtrMode::kPreInc) {
    set_pair(r, kPtr, addr);
  }
  if constexpr (kStore) {
    m.store(addr, r[reg]);
  } else {
    r[reg] = m.load(addr);
  }
  if constexpr (kMode == PtrMode::kPostInc) set_pair(r, kPtr, addr + 1u);
  if constexpr (kMode == PtrMode::kPostDec) set_pair(r, kPtr, addr - 1u);
}

// --- Program-memory loads ---------------------------------------------------------

template <bool kExt, bool kR0, bool kInc>
inline void flash_load(u8* r, const ProgramMemory& flash, u8 a) {
  const u32 z =
      (kExt ? static_cast<u32>(r[kAddrRampz]) << 16 : 0u) | pair(r, 30);
  r[kR0 ? 0 : a] = flash.byte(z);
  if constexpr (kInc) {
    set_pair(r, 30, z + 1);
    if constexpr (kExt) r[kAddrRampz] = static_cast<u8>(((z + 1) >> 16) & 0xFF);
  }
}

// --- Control flow -------------------------------------------------------------------

/// RJMP/RCALL/BRBS/BRBC target (unmasked words).
constexpr u32 rel_target(const Instr& in, u32 pc) {
  return pc + 1 + static_cast<u32>(in.target);
}
/// Static target of RJMP/RCALL (relative) or JMP/CALL (absolute).
constexpr u32 static_target(const Instr& in, u32 pc) {
  return in.op == Op::Jmp || in.op == Op::Call ? static_cast<u32>(in.target)
                                               : rel_target(in, pc);
}
/// IJMP/ICALL target: Z.
constexpr u32 z_target(const u8* r) { return pair(r, 30); }
/// EIJMP/EICALL target: EIND:Z.
constexpr u32 eind_target(const u8* r) {
  return (static_cast<u32>(r[kAddrEind]) << 16) | pair(r, 30);
}
/// CPSE/SBRC/SBRS/SBIC/SBIS skip target: past the next instruction, one
/// or two words.
inline u32 skip_target(const ProgramMemory& flash, u32 next, u32 mask) {
  return (next + (is_two_word(flash.word(next)) ? 2 : 1)) & mask;
}
/// BRBS/BRBC/SBRC/SBRS/SBIC/SBIS: taken when the tested bit of `v` is
/// set (…S forms) or clear (…C forms).
constexpr bool bit_taken(Op op, u8 v, u8 bit) {
  const bool set = (v >> bit) & 1;
  return (op == Op::Brbs || op == Op::Sbrs || op == Op::Sbis) ? set : !set;
}

/// RETI's SREG effect: interrupts re-enabled.
constexpr u8 reti_sreg(u8 s) { return static_cast<u8>(s | fb(kI)); }

/// Batched return-address push when every byte lands in plain RAM
/// [kExtIoEnd, data_size): no device handler, no wrap, no SPL/SPH
/// aliasing, so it equals the byte-at-a-time sequence. LSB first, so
/// ascending memory reads big-endian — the layout the paper's ROP
/// payloads (Fig. 6) rely on. False, with nothing written, otherwise.
inline bool push_ret(u8* r, u32 data_size, unsigned n, u32 ret) {
  const u32 sp = pair(r, kAddrSpl);
  if (sp < kExtIoEnd + (n - 1) || sp >= data_size) return false;
  r[sp] = static_cast<u8>(ret & 0xFF);
  r[sp - 1] = static_cast<u8>((ret >> 8) & 0xFF);
  if (n == 3) r[sp - 2] = static_cast<u8>((ret >> 16) & 0xFF);
  set_pair(r, kAddrSpl, sp - n);
  return true;
}

/// The matching batched pop; `raw` is the unmasked popped value.
inline bool pop_ret(u8* r, u32 data_size, unsigned n, u32& raw) {
  const u32 sp = pair(r, kAddrSpl);
  if (sp + 1 < kExtIoEnd || sp + n >= data_size) return false;
  raw = 0;
  for (unsigned i = 1; i <= n; ++i) raw = (raw << 8) | r[sp + i];
  set_pair(r, kAddrSpl, sp + n);
  return true;
}

}  // namespace mavr::avr::isa
