// Differential ISA fuzzer (DESIGN.md §16). Structured random instruction
// streams run on three sim::Boards — the cycle-exact interpreter, the
// superblock tier, and the traced interpreter under a null tracer — and
// must agree on the full data space, PC, cycle and retire counts,
// interrupts taken, CpuState and every device side effect after each run
// chunk. Two more boards carry a recording tracer with a narrow, moving SP
// window and a breakpoint inside an inlined callee: the fully traced
// interpreter and the event-emitting tier must log the same hooks, seen
// with the same core state, and stop at the same breakpoint hits.
//
// The generator keeps control flow inside the image and deliberately
// reaches the corners the generated firmware never does: every decoded
// Op, all sixteen fused idioms with operands biased toward flag-chaining
// edge cases, device-handled registers in the low I/O region (so the
// tier's in-block dispatch runs), UART and servo registers, pointers and
// SP aimed at the register file, the I/O region and the end of RAM,
// skips over 32-bit instructions, flash wrap at the top word, and a
// reflash between run chunks.
//
// A second suite checks the chained 16-bit arithmetic idioms against an
// independent reference model, so an error shared by every execution
// path (one semantics, many drivers) still fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "avr/cpu.hpp"
#include "avr/decode.hpp"
#include "sim/board.hpp"
#include "support/rng.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Op;
namespace tc = toolchain;

constexpr std::uint32_t kFlashWords = 0x20000;  // ATmega2560
constexpr std::uint32_t kIsr = 0x30;
constexpr std::uint32_t kSubs = 0x40;
constexpr std::uint32_t kSubStride = 24;
constexpr unsigned kSubCount = 6;
constexpr std::uint32_t kInit = 0x100;
constexpr std::uint32_t kTop = kFlashWords - 8;  ///< top-of-flash region
constexpr std::uint16_t kStackTop = 0x21FF;
constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Spm) + 1;

// Test devices in the low I/O region, where IN/OUT/SBI/CBI/SBIC/SBIS
// reach them (the board's own devices all sit in extended I/O).
constexpr std::uint8_t kIoCounter = 0x00;  ///< read: counts its reads
constexpr std::uint8_t kIoSink = 0x01;     ///< write: folds into a checksum
constexpr std::uint8_t kIoLatch = 0x02;    ///< read+write; odd writes raise
                                           ///< the interrupt hint

struct TestDevices {
  explicit TestDevices(avr::IoBus& bus) : bus(bus) {
    bus.on_read(
        avr::kIoBase + kIoCounter,
        [](void* self) {
          auto* d = static_cast<TestDevices*>(self);
          return static_cast<std::uint8_t>(d->reads++ * 37 + 11);
        },
        this);
    bus.on_write(
        avr::kIoBase + kIoSink,
        [](void* self, std::uint8_t v) {
          auto* d = static_cast<TestDevices*>(self);
          d->sink = d->sink * 31 + v;
        },
        this);
    bus.on_read(
        avr::kIoBase + kIoLatch,
        [](void* self) {
          auto* d = static_cast<TestDevices*>(self);
          return static_cast<std::uint8_t>(d->latch ^ d->reads);
        },
        this);
    bus.on_write(
        avr::kIoBase + kIoLatch,
        [](void* self, std::uint8_t v) {
          auto* d = static_cast<TestDevices*>(self);
          d->latch = v;
          if (v & 1) d->bus.raise_irq();
        },
        this);
  }
  avr::IoBus& bus;
  std::uint8_t reads = 0;
  std::uint32_t sink = 0;
  std::uint8_t latch = 0x5A;
};

/// One hook as a tracer saw it: the kind, its arguments, and the core
/// state read inside the hook.
struct HookEvent {
  char kind;
  std::uint32_t a, b, c, d;
  std::uint32_t pc;
  std::uint64_t cycles, retired;
  std::uint16_t sp;
  std::uint8_t sreg;
  bool operator==(const HookEvent&) const = default;
};

/// Records the hooks its interest names. SP moves count only when the old
/// or new SP lies outside a narrow window, which re-centres on each
/// recorded move — the window moves inside hooks, as the detection
/// engine's does. Every fifth breakpoint hit ends the run.
class Recorder : public avr::Tracer {
 public:
  Recorder() {
    interest_.events = avr::kTierTraceEvents;
    interest_.sp_lo = 0x21F0;
    interest_.sp_hi = 0x21FC;
  }
  void set_breakpoint(std::uint32_t pc_words) {
    interest_.breakpoints = {};
    interest_.breakpoints.add(pc_words);
  }

  void on_call(const avr::Cpu& cpu, std::uint32_t from, std::uint32_t to,
               std::uint32_t ret) override {
    log(cpu, 'C', from, to, ret, 0);
  }
  void on_ret(const avr::Cpu& cpu, std::uint32_t from, std::uint32_t to,
              std::uint32_t raw, bool reti) override {
    log(cpu, 'R', from, to, raw, reti);
  }
  void on_irq(const avr::Cpu& cpu, std::uint8_t slot,
              std::uint32_t from) override {
    log(cpu, 'I', slot, from, 0, 0);
  }
  void on_sp_change(const avr::Cpu& cpu, std::uint16_t old_sp,
                    std::uint16_t new_sp) override {
    if (!interest_.sp_outside(old_sp) && !interest_.sp_outside(new_sp)) {
      return;  // the promised no-op
    }
    log(cpu, 'S', old_sp, new_sp, 0, 0);
    ++sp_moves;
    interest_.sp_lo = static_cast<std::uint16_t>(new_sp - 5);
    interest_.sp_hi = static_cast<std::uint16_t>(new_sp + 3);
  }
  void on_fault(const avr::Cpu& cpu, const avr::FaultInfo& info) override {
    log(cpu, 'F', info.pc_words, info.opcode, 0, 0);
  }
  bool on_breakpoint(const avr::Cpu& cpu, std::uint32_t pc) override {
    log(cpu, 'B', pc, 0, 0, 0);
    ++breakpoint_hits;
    return breakpoint_hits % 5 == 0;
  }

  std::vector<HookEvent> events;
  std::uint64_t sp_moves = 0;
  std::uint64_t breakpoint_hits = 0;

 private:
  void log(const avr::Cpu& cpu, char kind, std::uint32_t a, std::uint32_t b,
           std::uint32_t c, std::uint32_t d) {
    events.push_back({kind, a, b, c, d, cpu.pc(), cpu.cycles(),
                      cpu.instructions_retired(), cpu.sp(), cpu.sreg()});
  }
};

/// One execution mode on its own board.
struct Rig {
  enum Mode { kInterp, kTier, kTraced, kRecordTraced, kRecordTier };
  explicit Rig(Mode mode) : devices(board.cpu().io()) {
    board.cpu().set_exec_tier(mode == kTier || mode == kRecordTier);
    if (mode == kTraced) board.cpu().set_tracer(&null_tracer);
    if (mode == kRecordTraced || mode == kRecordTier) {
      board.cpu().set_tracer(&recorder);
    }
  }
  sim::Board board;
  TestDevices devices;
  avr::Tracer null_tracer;
  Recorder recorder;
};

struct Snapshot {
  std::vector<std::uint8_t> data;
  std::uint32_t pc;
  std::uint64_t cycles, retired, irqs;
  avr::CpuState state;
  support::Bytes uart_tx;
  std::size_t servo_writes;
  std::uint8_t dev_reads, dev_latch;
  std::uint32_t dev_sink;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(Rig& rig) {
  avr::Cpu& cpu = rig.board.cpu();
  const std::uint8_t* raw = cpu.data().raw_data();
  return {std::vector<std::uint8_t>(raw, raw + cpu.data().size()),
          cpu.pc(),
          cpu.cycles(),
          cpu.instructions_retired(),
          cpu.interrupts_taken(),
          cpu.state(),
          rig.board.telemetry().host_take_tx(),
          rig.board.servo(0).history().size(),
          rig.devices.reads,
          rig.devices.latch,
          rig.devices.sink};
}

std::string first_difference(const Snapshot& a, const Snapshot& b) {
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    if (a.data[i] != b.data[i]) {
      return "data[0x" + std::to_string(i) + "] " +
             std::to_string(a.data[i]) + " vs " + std::to_string(b.data[i]);
    }
  }
  return "pc " + std::to_string(a.pc) + "/" + std::to_string(b.pc) +
         " cycles " + std::to_string(a.cycles) + "/" +
         std::to_string(b.cycles) + " retired " + std::to_string(a.retired) +
         "/" + std::to_string(b.retired) + " irqs " + std::to_string(a.irqs) +
         "/" + std::to_string(b.irqs) + " state " +
         std::to_string(static_cast<int>(a.state)) + "/" +
         std::to_string(static_cast<int>(b.state));
}

/// The sixteen adjacent pairs the tier fuses (tier.hpp's pair table).
enum class Idiom {
  kLds2, kSts2, kLdi2, kLdiAdd, kLdsAdd, kLdsSub, kAddSts, kRorLdi,
  kAddAdc, kAddAdd, kSubSbc, kSubiSbci, kAsrRor, kRorAsr, kLdsSts, kStsLds,
};
constexpr std::size_t kIdiomCount = 16;

/// Structured random program generator. Emits a flash image: reset and
/// wrap vectors, a timer ISR, a few subroutines, an init section, a body
/// of random items looping back on itself, and a top-of-flash region that
/// wraps to word 0.
class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed), lo_(0x1000, 0xFFFF) {}

  void generate() {
    // Reset vector and wrap landing: word 1 is where the top region's
    // wrap-around arrives.
    at_ = 0;
    emit(tc::enc_rel_jump(Op::Rjmp, static_cast<int>(kInit) - 1));
    const std::size_t wrap_slot = at_;
    emit(0);
    at_ = 2 * 17;  // timer vector (firmware::kTimerVector)
    emit(tc::enc_rel_jump(Op::Rjmp, static_cast<int>(kIsr - at_ - 1)));

    at_ = kIsr;
    emit(tc::enc_one_reg(Op::Inc, 3));
    emit(tc::enc_no_operand(Op::Reti));

    for (unsigned s = 0; s < kSubCount; ++s) gen_sub(s);

    at_ = kInit;
    for (std::uint8_t r = 16; r < 32; ++r) ldi(r, byte());
    for (std::uint8_t r = 1; r < 16; ++r) {
      emit(tc::enc_two_reg(Op::Mov, r, static_cast<std::uint8_t>(16 + r)));
    }
    set_pointer(26);
    set_pointer(28);
    set_pointer(30);
    body_start_ = at_;
    lo_[wrap_slot] = tc::enc_rel_jump(
        Op::Rjmp, static_cast<int>(body_start_) - static_cast<int>(wrap_slot) - 1);
    patch_slot_ = at_;
    ldi(17, byte());  // rewritten by the mid-run reflash
    set_sp(kStackTop);
    emit(tc::enc_imm(Op::Ldi, 16, 0));
    emit(tc::enc_out(avr::kIoEind, 16));

    const unsigned items = 60 + static_cast<unsigned>(rng_.below(80));
    const bool stop_early = rng_.below(8) == 0;
    const unsigned stop_at = static_cast<unsigned>(rng_.below(items));
    for (unsigned i = 0; i < items && at_ < kInit + 1700; ++i) {
      if (stop_early && i == stop_at) {
        emit(rng_.below(2) ? tc::enc_no_operand(Op::Break) : invalid_word());
      }
      gen_item();
    }
    starts_.push_back(at_);
    emit(tc::enc_rel_jump(Op::Rjmp, static_cast<int>(body_start_) -
                                        static_cast<int>(at_) - 1));
    resolve_fixups();
    gen_top();
  }

  support::Bytes low_image() const { return to_bytes(lo_, 0, at_max_); }
  support::Bytes top_page() const { return to_bytes(top_, 0, top_.size()); }

  /// A same-size rewrite of one body word for the mid-run reflash: the
  /// patch slot's immediate, or a random one-word ALU op over a one-word
  /// ALU op.
  std::pair<std::uint32_t, std::uint16_t> reflash_edit() {
    if (rng_.below(2) || alu_slots_.empty()) {
      return {static_cast<std::uint32_t>(patch_slot_),
              tc::enc_imm(Op::Ldi, 17, byte())};
    }
    const std::size_t slot = alu_slots_[rng_.below(alu_slots_.size())];
    return {static_cast<std::uint32_t>(slot), random_alu_word()};
  }

  /// Word address of the second instruction of subroutine `s`: inside the
  /// callee body the tier inlines at every static call.
  std::uint32_t inside_sub(unsigned s) const {
    const std::uint32_t at = kSubs + kSubStride * s;
    return at + avr::decode(lo_[at], lo_[at + 1]).size_words;
  }

  const std::bitset<kOpCount>& ops_seen() const { return ops_seen_; }
  const std::bitset<kIdiomCount>& idioms_seen() const { return idioms_; }

 private:
  struct Fixup {
    enum Kind { kBranch, kRjmp, kJmp, kZ, kRetAddr } kind;
    std::size_t at;     ///< word to patch (kZ/kRetAddr: first LDI)
    std::size_t after;  ///< index into starts_ of the next instruction
    unsigned ahead;     ///< target = that many instructions further on
    std::size_t at2 = 0;  ///< second LDI (kZ/kRetAddr)
    Op op = Op::Nop;
    std::uint8_t bit = 0;
  };

  static support::Bytes to_bytes(const std::vector<std::uint16_t>& w,
                                 std::size_t from, std::size_t to) {
    support::Bytes out;
    for (std::size_t i = from; i < to; ++i) {
      out.push_back(static_cast<std::uint8_t>(w[i] & 0xFF));
      out.push_back(static_cast<std::uint8_t>(w[i] >> 8));
    }
    return out;
  }

  std::uint8_t byte() { return static_cast<std::uint8_t>(rng_.below(256)); }
  std::uint8_t any_reg() { return static_cast<std::uint8_t>(rng_.below(32)); }
  std::uint8_t hi_reg() {
    return static_cast<std::uint8_t>(16 + rng_.below(16));
  }
  bool chance(unsigned n) { return rng_.below(n) == 0; }

  void note(std::uint16_t w0, std::uint16_t w1) {
    ops_seen_.set(static_cast<std::size_t>(avr::decode(w0, w1).op));
  }
  void emit(std::uint16_t w) {
    if (in_body_) starts_.push_back(at_);
    note(w, 0);
    lo_[at_++] = w;
    if (at_ > at_max_) at_max_ = at_;
  }
  void emit2(tc::WordPair p) {
    if (in_body_) starts_.push_back(at_);
    note(p.first, p.second);
    lo_[at_++] = p.first;
    lo_[at_++] = p.second;
    if (at_ > at_max_) at_max_ = at_;
  }
  void ldi(std::uint8_t r, std::uint8_t v) { emit(tc::enc_imm(Op::Ldi, r, v)); }

  std::uint16_t invalid_word() {
    for (std::uint16_t w = 0xFFFF;; --w) {
      if (avr::decode(w, 0).op == Op::Invalid) return w;
    }
  }

  /// Data-space address classes the paper's gadgets and the tier's guards
  /// care about.
  std::uint16_t data_addr() {
    switch (rng_.below(10)) {
      case 0: return any_reg();
      case 1: return static_cast<std::uint16_t>(0x20 + rng_.below(3));
      case 2: return static_cast<std::uint16_t>(0x23 + rng_.below(0x38));
      case 3: {
        static constexpr std::uint16_t kDev[] = {0xC0, 0xC6, 0x120, 0x121,
                                                 0x140, 0x141, 0x150, 0x151};
        return kDev[rng_.below(8)];
      }
      case 4: return static_cast<std::uint16_t>(0x60 + rng_.below(0x1A0));
      case 5: return static_cast<std::uint16_t>(0x21C0 + rng_.below(0x50));
      case 6: return static_cast<std::uint16_t>(0xFFC0 + rng_.below(0x40));
      default: return static_cast<std::uint16_t>(0x200 + rng_.below(0x2000));
    }
  }
  std::uint16_t plain_addr() {
    return static_cast<std::uint16_t>(0x200 + rng_.below(0x2000));
  }

  void set_pointer(std::uint8_t lo) {
    const std::uint16_t v = data_addr();
    ldi(lo, static_cast<std::uint8_t>(v & 0xFF));
    ldi(static_cast<std::uint8_t>(lo + 1), static_cast<std::uint8_t>(v >> 8));
  }
  void set_sp(std::uint16_t v) {
    ldi(16, static_cast<std::uint8_t>(v & 0xFF));
    ldi(18, static_cast<std::uint8_t>(v >> 8));
    emit(tc::enc_out(avr::kIoSph, 18));
    emit(tc::enc_out(avr::kIoSpl, 16));
  }

  std::uint16_t random_alu_word() {
    switch (rng_.below(4)) {
      case 0: {
        static constexpr Op kTwo[] = {Op::Add, Op::Adc, Op::Sub, Op::Sbc,
                                      Op::And, Op::Or,  Op::Eor, Op::Mov,
                                      Op::Cp,  Op::Cpc, Op::Mul};
        return tc::enc_two_reg(kTwo[rng_.below(11)], any_reg(), any_reg());
      }
      case 1: {
        static constexpr Op kImm[] = {Op::Ldi,  Op::Subi, Op::Sbci,
                                      Op::Andi, Op::Ori,  Op::Cpi};
        return tc::enc_imm(kImm[rng_.below(6)], hi_reg(), byte());
      }
      case 2: {
        static constexpr Op kOne[] = {Op::Com, Op::Neg, Op::Swap, Op::Inc,
                                      Op::Asr, Op::Lsr, Op::Ror,  Op::Dec};
        return tc::enc_one_reg(kOne[rng_.below(8)], any_reg());
      }
      default:
        switch (rng_.below(6)) {
          case 0:
            return tc::enc_movw(static_cast<std::uint8_t>(2 * rng_.below(16)),
                                static_cast<std::uint8_t>(2 * rng_.below(16)));
          case 1:
          case 2:
            return tc::enc_adiw(rng_.below(2) ? Op::Adiw : Op::Sbiw,
                                static_cast<std::uint8_t>(24 + 2 * rng_.below(4)),
                                static_cast<std::uint8_t>(rng_.below(64)));
          case 3:
            // Never bit I: SEI is its own item (it gates interrupts).
            return tc::enc_bset_bclr(
                rng_.below(2) ? Op::Bset : Op::Bclr,
                static_cast<std::uint8_t>(rng_.below(7)));
          case 4:
            return tc::enc_bst_bld(rng_.below(2) ? Op::Bst : Op::Bld,
                                   any_reg(),
                                   static_cast<std::uint8_t>(rng_.below(8)));
          default: {
            static constexpr Op kMisc[] = {Op::Nop, Op::Sleep, Op::Wdr,
                                           Op::Spm};
            return tc::enc_no_operand(kMisc[rng_.below(4)]);
          }
        }
    }
  }

  void alu() {
    alu_slots_.push_back(at_);
    emit(random_alu_word());
  }

  void data_op() {
    switch (rng_.below(9)) {
      case 0: emit2(tc::enc_lds(any_reg(), data_addr())); break;
      case 1: emit2(tc::enc_sts(data_addr(), any_reg())); break;
      case 2: {
        const std::uint8_t io = rng_.below(3) ? static_cast<std::uint8_t>(rng_.below(3))
                                              : static_cast<std::uint8_t>(rng_.below(64));
        emit(tc::enc_in(any_reg(), io));
        break;
      }
      case 3: {
        // SP/EIND writes are their own items; everything else is fair.
        std::uint8_t io = rng_.below(2) ? static_cast<std::uint8_t>(rng_.below(3))
                                        : static_cast<std::uint8_t>(rng_.below(64));
        if (io == avr::kIoSpl || io == avr::kIoSph || io == avr::kIoEind) io = 1;
        emit(tc::enc_out(io, any_reg()));
        break;
      }
      case 4: {
        const std::uint8_t io = rng_.below(2) ? static_cast<std::uint8_t>(rng_.below(3))
                                              : static_cast<std::uint8_t>(rng_.below(32));
        emit(tc::enc_sbi_cbi(rng_.below(2) ? Op::Sbi : Op::Cbi, io,
                             static_cast<std::uint8_t>(rng_.below(8))));
        break;
      }
      case 5: {
        static constexpr Op kPtr[] = {
            Op::LdX,    Op::LdXInc, Op::LdXDec, Op::LdYInc, Op::LdYDec,
            Op::LdZInc, Op::LdZDec, Op::StX,    Op::StXInc, Op::StXDec,
            Op::StYInc, Op::StYDec, Op::StZInc, Op::StZDec};
        emit(tc::enc_ld_st(kPtr[rng_.below(14)], any_reg()));
        break;
      }
      case 6: {
        const bool use_y = rng_.below(2) != 0;
        const auto q = static_cast<std::uint8_t>(rng_.below(64));
        emit(rng_.below(2) ? tc::enc_ldd(any_reg(), use_y, q)
                           : tc::enc_std(use_y, q, any_reg()));
        break;
      }
      case 7: {
        static constexpr Op kLpm[] = {Op::LpmR0, Op::Lpm,  Op::LpmInc,
                                      Op::ElpmR0, Op::Elpm, Op::ElpmInc};
        if (chance(4)) {
          ldi(16, chance(2) ? 0xFF : byte());
          emit(tc::enc_out(avr::kIoRampz, 16));
        }
        emit(tc::enc_lpm(kLpm[rng_.below(6)], any_reg()));
        break;
      }
      default:
        if (rng_.below(2)) {
          emit(tc::enc_push(any_reg()));
        } else {
          emit(tc::enc_pop(any_reg()));
        }
        break;
    }
  }

  /// A fused idiom, with operand setup biased toward the cases where the
  /// first half's flags feed the second (carry/borrow chains, the SBC Z
  /// gate), then an SREG capture so a flag difference stays visible.
  void idiom() {
    const auto which = static_cast<Idiom>(rng_.below(kIdiomCount));
    idioms_.set(static_cast<std::size_t>(which));
    const std::uint8_t a = any_reg(), b = any_reg();
    const std::uint8_t lo = static_cast<std::uint8_t>(24 + 2 * rng_.below(3));
    const std::uint8_t hi = static_cast<std::uint8_t>(lo + 1);
    // Operands for the 16-bit idioms: d = r(lo):r(hi), s = r20:r21.
    const auto chain_setup = [&](bool subtract) {
      const std::uint8_t dl = byte(), dh = byte();
      std::uint8_t sl = byte(), sh = byte();
      if (rng_.below(4) != 0) {
        // Low half nonzero, high half exactly zero after the chained op.
        if (sl == dl) sl = static_cast<std::uint8_t>(dl + 1);
        if (subtract) {
          sh = static_cast<std::uint8_t>(dh - (dl < sl ? 1 : 0));
        } else {
          sh = static_cast<std::uint8_t>(-(dh + ((dl + sl) > 0xFF ? 1 : 0)));
        }
      } else if (rng_.below(2)) {
        sl = subtract ? dl : static_cast<std::uint8_t>(-dl);
        sh = subtract ? dh : static_cast<std::uint8_t>(-dh - (dl ? 1 : 0));
      }
      ldi(lo, dl);
      ldi(hi, dh);
      ldi(20, sl);
      ldi(21, sh);
      return std::pair{sl, sh};
    };
    switch (which) {
      case Idiom::kLds2:
        emit2(tc::enc_lds(a, plain_addr()));
        emit2(tc::enc_lds(b, plain_addr()));
        break;
      case Idiom::kSts2:
        emit2(tc::enc_sts(plain_addr(), a));
        emit2(tc::enc_sts(plain_addr(), b));
        break;
      case Idiom::kLdi2:
        ldi(hi_reg(), byte());
        ldi(hi_reg(), byte());
        break;
      case Idiom::kLdiAdd: {
        const std::uint8_t r = hi_reg();
        ldi(r, byte());
        emit(tc::enc_two_reg(Op::Add, chance(2) ? r : a, chance(2) ? r : b));
        break;
      }
      case Idiom::kLdsAdd:
      case Idiom::kLdsSub:
        emit2(tc::enc_lds(a, plain_addr()));
        emit(tc::enc_two_reg(which == Idiom::kLdsAdd ? Op::Add : Op::Sub,
                             chance(2) ? a : b, any_reg()));
        break;
      case Idiom::kAddSts:
        emit(tc::enc_two_reg(Op::Add, a, b));
        emit2(tc::enc_sts(plain_addr(), chance(2) ? a : any_reg()));
        break;
      case Idiom::kRorLdi:
        emit(tc::enc_one_reg(Op::Ror, a));
        ldi(hi_reg(), byte());
        break;
      case Idiom::kAddAdc:
      case Idiom::kAddAdd:
        chain_setup(false);
        emit(tc::enc_two_reg(Op::Add, lo, 20));
        emit(tc::enc_two_reg(which == Idiom::kAddAdc ? Op::Adc : Op::Add, hi,
                             21));
        break;
      case Idiom::kSubSbc:
        chain_setup(true);
        emit(tc::enc_two_reg(Op::Sub, lo, 20));
        emit(tc::enc_two_reg(Op::Sbc, hi, 21));
        break;
      case Idiom::kSubiSbci: {
        const auto [sl, sh] = chain_setup(true);
        emit(tc::enc_imm(Op::Subi, lo, sl));
        emit(tc::enc_imm(Op::Sbci, hi, sh));
        break;
      }
      case Idiom::kAsrRor:
        emit(tc::enc_one_reg(Op::Asr, a));
        emit(tc::enc_one_reg(Op::Ror, chance(2) ? a : b));
        break;
      case Idiom::kRorAsr:
        emit(tc::enc_one_reg(Op::Ror, a));
        emit(tc::enc_one_reg(Op::Asr, chance(2) ? a : b));
        break;
      case Idiom::kLdsSts:
        emit2(tc::enc_lds(a, plain_addr()));
        emit2(tc::enc_sts(plain_addr(), chance(2) ? a : b));
        break;
      case Idiom::kStsLds: {
        const std::uint16_t addr = plain_addr();
        emit2(tc::enc_sts(addr, a));
        emit2(tc::enc_lds(b, chance(2) ? addr : plain_addr()));
        break;
      }
    }
    // Capture SREG into a scratch register (r4..r15).
    emit(tc::enc_in(static_cast<std::uint8_t>(4 + rng_.below(12)),
                    avr::kIoSreg));
  }

  void forward(Fixup::Kind kind, Op op, std::uint8_t bit,
               unsigned max_ahead) {
    Fixup f{kind, at_, starts_.size() + 1,
            1 + static_cast<unsigned>(rng_.below(max_ahead))};
    f.op = op;
    f.bit = bit;
    fixups_.push_back(f);
  }

  void branch() {
    const Op op = rng_.below(2) ? Op::Brbs : Op::Brbc;
    const auto bit = static_cast<std::uint8_t>(rng_.below(8));
    forward(Fixup::kBranch, op, bit, 6);
    emit(tc::enc_branch(op, bit, 0));
  }

  /// The instruction a skip may jump over: one or two words.
  void skippable() {
    switch (rng_.below(6)) {
      case 0: emit2(tc::enc_lds(any_reg(), data_addr())); break;
      case 1: emit2(tc::enc_sts(data_addr(), any_reg())); break;
      case 2:
        forward(Fixup::kJmp, Op::Jmp, 0, 4);
        emit2(tc::enc_abs_jump(Op::Jmp, 0));
        break;
      case 3:
        emit2(tc::enc_abs_jump(Op::Call, sub_addr()));
        break;
      default: alu(); break;
    }
  }

  void skip() {
    switch (rng_.below(5)) {
      case 0: emit(tc::enc_two_reg(Op::Cpse, any_reg(), any_reg())); break;
      case 1:
        emit(tc::enc_skip_reg(Op::Sbrc, any_reg(),
                              static_cast<std::uint8_t>(rng_.below(8))));
        break;
      case 2:
        emit(tc::enc_skip_reg(Op::Sbrs, any_reg(),
                              static_cast<std::uint8_t>(rng_.below(8))));
        break;
      default: {
        const std::uint8_t io = rng_.below(2) ? static_cast<std::uint8_t>(rng_.below(3))
                                              : static_cast<std::uint8_t>(rng_.below(32));
        emit(tc::enc_skip_io(rng_.below(2) ? Op::Sbic : Op::Sbis, io,
                             static_cast<std::uint8_t>(rng_.below(8))));
        break;
      }
    }
    skippable();
  }

  std::uint32_t sub_addr() {
    return kSubs + kSubStride * static_cast<std::uint32_t>(rng_.below(kSubCount));
  }

  void call() {
    const std::uint32_t target = sub_addr();
    switch (rng_.below(4)) {
      case 0:
        emit(tc::enc_rel_jump(Op::Rcall, static_cast<int>(target) -
                                             static_cast<int>(at_) - 1));
        break;
      case 1: emit2(tc::enc_abs_jump(Op::Call, target)); break;
      default: {
        const bool ext = rng_.below(2) != 0;
        if (ext) {
          ldi(16, 0);
          emit(tc::enc_out(avr::kIoEind, 16));
        }
        ldi(30, static_cast<std::uint8_t>(target & 0xFF));
        ldi(31, static_cast<std::uint8_t>(target >> 8));
        emit(tc::enc_no_operand(ext ? Op::Eicall : Op::Icall));
        break;
      }
    }
  }

  /// IJMP/EIJMP/RJMP/JMP to a later instruction, or RET/RETI to one
  /// through a hand-pushed return address.
  void jump() {
    switch (rng_.below(5)) {
      case 0:
      case 1: {
        const bool ext = rng_.below(2) != 0;
        if (ext) {
          ldi(16, 0);
          emit(tc::enc_out(avr::kIoEind, 16));
        }
        Fixup f{Fixup::kZ, at_, 0, 0};
        ldi(30, 0);
        f.at2 = at_;
        ldi(31, 0);
        f.after = starts_.size() + 1;
        f.ahead = 1 + static_cast<unsigned>(rng_.below(5));
        fixups_.push_back(f);
        emit(tc::enc_no_operand(ext ? Op::Eijmp : Op::Ijmp));
        break;
      }
      case 2:
        forward(Fixup::kRjmp, Op::Rjmp, 0, 5);
        emit(tc::enc_rel_jump(Op::Rjmp, 0));
        break;
      default: {
        Fixup f{Fixup::kRetAddr, at_, 0, 0};
        ldi(16, 0);
        emit(tc::enc_push(16));
        f.at2 = at_;
        ldi(16, 0);
        emit(tc::enc_push(16));
        ldi(16, 0);
        emit(tc::enc_push(16));
        f.after = starts_.size() + 1;
        f.ahead = 1 + static_cast<unsigned>(rng_.below(5));
        fixups_.push_back(f);
        emit(tc::enc_no_operand(rng_.below(2) ? Op::Ret : Op::Reti));
        break;
      }
    }
  }

  /// Counted loop; a one-op body makes its block a self-loop. A PUSH or
  /// POP in the body drifts SP on every pass, so a self-loop must keep
  /// rechecking a tracer's SP window.
  void loop() {
    const std::uint8_t counter = static_cast<std::uint8_t>(16 + rng_.below(4));
    ldi(counter, static_cast<std::uint8_t>(1 + rng_.below(20)));
    const std::size_t head = at_;
    const unsigned body = static_cast<unsigned>(rng_.below(3));
    for (unsigned i = 0; i < body; ++i) {
      if (chance(4)) {
        emit(chance(2) ? tc::enc_push(any_reg()) : tc::enc_pop(any_reg()));
      } else {
        alu();
      }
    }
    emit(tc::enc_one_reg(Op::Dec, counter));
    emit(tc::enc_branch(Op::Brbc, avr::kZ,
                        static_cast<int>(head) - static_cast<int>(at_) - 1));
  }

  /// SP pivoted into the I/O region, the register file or the end of RAM
  /// for a few stack operations, then restored.
  void sp_excursion() {
    std::uint16_t sp;
    switch (rng_.below(4)) {
      case 0: sp = static_cast<std::uint16_t>(0x20 + rng_.below(0x40)); break;
      case 1: sp = static_cast<std::uint16_t>(rng_.below(0x22)); break;
      case 2: sp = static_cast<std::uint16_t>(0x21F8 + rng_.below(0x10)); break;
      default: sp = static_cast<std::uint16_t>(0x1F8 + rng_.below(0x10)); break;
    }
    set_sp(sp);
    const unsigned n = 1 + static_cast<unsigned>(rng_.below(3));
    for (unsigned i = 0; i < n; ++i) {
      switch (rng_.below(4)) {
        case 0: emit(tc::enc_push(any_reg())); break;
        case 1: emit(tc::enc_pop(any_reg())); break;
        case 2: call(); break;
        default: jump(); break;
      }
    }
    set_sp(kStackTop);
  }

  void gen_item() {
    in_body_ = true;
    switch (rng_.below(24)) {
      case 0: case 1: case 2: case 3: case 4: alu(); break;
      case 5: case 6: case 7: case 8: data_op(); break;
      case 9: case 10: case 11: idiom(); break;
      case 12: case 13: branch(); break;
      case 14: case 15: skip(); break;
      case 16: call(); break;
      case 17: jump(); break;
      case 18: loop(); break;
      case 19: set_pointer(static_cast<std::uint8_t>(26 + 2 * rng_.below(3))); break;
      case 20:
        if (chance(3)) sp_excursion(); else alu();
        break;
      case 21:
        emit(tc::enc_bset_bclr(rng_.below(3) ? Op::Bset : Op::Bclr, avr::kI));
        break;
      case 22:
        if (chance(6)) {
          emit2(tc::enc_abs_jump(Op::Jmp, kTop));
        } else {
          emit(tc::enc_in(any_reg(), avr::kIoSreg));
        }
        break;
      default:
        // Wholesale SREG writes: OUT and STS to 0x5F end blocks.
        if (rng_.below(2)) {
          emit(tc::enc_out(avr::kIoSreg, any_reg()));
        } else {
          emit2(tc::enc_sts(avr::kAddrSreg, any_reg()));
        }
        break;
    }
  }

  void gen_sub(unsigned s) {
    in_body_ = false;
    at_ = kSubs + kSubStride * s;
    const unsigned n = 2 + static_cast<unsigned>(rng_.below(8));
    for (unsigned i = 0; i < n; ++i) {
      switch (rng_.below(4)) {
        case 0: emit2(tc::enc_lds(any_reg(), plain_addr())); break;
        case 1: emit2(tc::enc_sts(plain_addr(), any_reg())); break;
        default: emit(random_alu_word()); break;
      }
    }
    if (s + 1 < kSubCount && chance(3)) {
      const std::uint32_t next = kSubs + kSubStride * (s + 1);
      emit(tc::enc_rel_jump(Op::Rcall,
                            static_cast<int>(next) - static_cast<int>(at_) - 1));
    }
    emit(tc::enc_no_operand(Op::Ret));
  }

  void resolve_fixups() {
    for (const Fixup& f : fixups_) {
      const std::size_t idx = std::min(f.after - 1 + f.ahead, starts_.size() - 1);
      std::size_t target = starts_[idx];
      const int off = static_cast<int>(target) - static_cast<int>(f.at) - 1;
      switch (f.kind) {
        case Fixup::kBranch:
          lo_[f.at] = tc::enc_branch(f.op, f.bit, std::min(off, 63));
          break;
        case Fixup::kRjmp: lo_[f.at] = tc::enc_rel_jump(Op::Rjmp, off); break;
        case Fixup::kJmp:
          lo_[f.at + 1] = static_cast<std::uint16_t>(target);
          break;
        case Fixup::kZ:
        case Fixup::kRetAddr: {
          const std::uint8_t r = f.kind == Fixup::kZ ? 30 : 16;
          lo_[f.at] = tc::enc_imm(Op::Ldi, r, static_cast<std::uint8_t>(target & 0xFF));
          lo_[f.at2] = tc::enc_imm(Op::Ldi, f.kind == Fixup::kZ ? 31 : 16,
                                   static_cast<std::uint8_t>(target >> 8));
          break;
        }
      }
    }
  }

  /// Top of flash: a few ops, then a wrap through word 0/1. The variants
  /// put a skip over a 32-bit instruction whose second word is flash
  /// word 0, a 32-bit load straddling the wrap, or a one-word op falling
  /// off the end into the reset vector.
  void gen_top() {
    top_.assign(8, 0);
    std::size_t i = 0;
    for (; i < 5; ++i) {
      top_[i] = random_alu_word();
      note(top_[i], 0);
    }
    switch (rng_.below(3)) {
      case 0:
        top_[5] = tc::enc_one_reg(Op::Inc, any_reg());
        top_[6] = tc::enc_skip_reg(Op::Sbrs, any_reg(),
                                   static_cast<std::uint8_t>(rng_.below(8)));
        top_[7] = rng_.below(2) ? tc::enc_lds(any_reg(), 0).first
                                : tc::enc_sts(0, any_reg()).first;
        break;
      case 1:
        top_[5] = tc::enc_one_reg(Op::Inc, any_reg());
        top_[6] = tc::enc_one_reg(Op::Dec, any_reg());
        top_[7] = tc::enc_lds(any_reg(), 0).first;
        break;
      default:
        top_[5] = tc::enc_one_reg(Op::Inc, any_reg());
        top_[6] = tc::enc_one_reg(Op::Dec, any_reg());
        top_[7] = tc::enc_rel_jump(Op::Rjmp, 1);  // wraps to word 1
        break;
    }
    for (std::size_t j = 5; j < 8; ++j) note(top_[j], lo_[0]);
  }

  support::Rng rng_;
  std::vector<std::uint16_t> lo_;
  std::vector<std::uint16_t> top_;
  std::size_t at_ = 0;
  std::size_t at_max_ = 0;
  std::size_t body_start_ = 0;
  std::size_t patch_slot_ = 0;
  bool in_body_ = false;
  std::vector<std::size_t> starts_;
  std::vector<std::size_t> alu_slots_;
  std::vector<Fixup> fixups_;
  std::bitset<kOpCount> ops_seen_;
  std::bitset<kIdiomCount> idioms_;
};

constexpr int kPrograms = 2500;

std::string first_difference(const std::vector<HookEvent>& a,
                             const std::vector<HookEvent>& b) {
  const auto show = [](const std::vector<HookEvent>& log, std::size_t i) {
    if (i >= log.size()) return std::string("(none)");
    const HookEvent& e = log[i];
    return std::string(1, e.kind) + "(" + std::to_string(e.a) + "," +
           std::to_string(e.b) + "," + std::to_string(e.c) + "," +
           std::to_string(e.d) + ") pc " + std::to_string(e.pc) +
           " cycles " + std::to_string(e.cycles) + " retired " +
           std::to_string(e.retired) + " sp " + std::to_string(e.sp) +
           " sreg " + std::to_string(e.sreg);
  };
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return "event " + std::to_string(i) + " of " + std::to_string(a.size()) +
         "/" + std::to_string(b.size()) + ": " + show(a, i) + " vs " +
         show(b, i);
}

TEST(IsaDiff, RandomStreamsAgreeAcrossInterpreterTierAndTraced) {
  std::array<std::unique_ptr<Rig>, 5> rigs = {
      std::make_unique<Rig>(Rig::kInterp), std::make_unique<Rig>(Rig::kTier),
      std::make_unique<Rig>(Rig::kTraced),
      std::make_unique<Rig>(Rig::kRecordTraced),
      std::make_unique<Rig>(Rig::kRecordTier)};
  Recorder& traced_log = rigs[3]->recorder;
  Recorder& tier_log = rigs[4]->recorder;
  support::Rng master(0x15AD1FF);
  std::bitset<kOpCount> ops;
  std::bitset<kIdiomCount> idioms;
  std::uint64_t irqs = 0, instructions = 0;

  for (int p = 0; p < kPrograms; ++p) {
    Generator gen(master.next());
    gen.generate();
    ops |= gen.ops_seen();
    idioms |= gen.idioms_seen();
    const support::Bytes low = gen.low_image();
    const support::Bytes top = gen.top_page();
    support::Bytes rx(4 + master.below(12));
    for (auto& b : rx) b = static_cast<std::uint8_t>(master.below(256));
    const std::uint64_t chunks[3] = {1 + master.below(40'000),
                                     1 + master.below(400),
                                     1 + master.below(40'000)};
    const auto [edit_at, edit_word] = gen.reflash_edit();
    const support::Bytes edit = {static_cast<std::uint8_t>(edit_word & 0xFF),
                                 static_cast<std::uint8_t>(edit_word >> 8)};
    const std::uint32_t breakpoint = gen.inside_sub(p % kSubCount);
    traced_log.set_breakpoint(breakpoint);
    tier_log.set_breakpoint(breakpoint);

    std::array<Snapshot, 5> snaps;
    for (int c = 0; c < 3; ++c) {
      for (std::size_t m = 0; m < rigs.size(); ++m) {
        sim::Board& board = rigs[m]->board;
        if (c == 0) {
          board.flash_image(low);
          board.cpu().flash().program_page(kTop * 2, top);
          board.telemetry().host_send(rx);
        }
        if (c == 2) board.cpu().flash().program_page(edit_at * 2, edit);
        board.run_cycles(chunks[c]);
        snaps[m] = snapshot(*rigs[m]);
      }
      ASSERT_TRUE(snaps[1] == snaps[0])
          << "tier diverged: program " << p << " chunk " << c << ": "
          << first_difference(snaps[1], snaps[0]);
      ASSERT_TRUE(snaps[2] == snaps[0])
          << "traced diverged: program " << p << " chunk " << c << ": "
          << first_difference(snaps[2], snaps[0]);
      ASSERT_TRUE(tier_log.events == traced_log.events)
          << "hook log diverged: program " << p << " chunk " << c << ": "
          << first_difference(tier_log.events, traced_log.events);
      ASSERT_TRUE(snaps[4] == snaps[3])
          << "event tier diverged: program " << p << " chunk " << c << ": "
          << first_difference(snaps[4], snaps[3]);
      tier_log.events.clear();
      traced_log.events.clear();
    }
    irqs = snaps[0].irqs;
    instructions = snaps[0].retired;
  }

  // The generator reached every decoded op and every fused idiom ...
  for (std::size_t op = 0; op < kOpCount; ++op) {
    EXPECT_TRUE(ops.test(op)) << "never emitted: "
                              << avr::op_name(static_cast<Op>(op));
  }
  EXPECT_TRUE(idioms.all());
  // ... and the tier really ran the paths the streams aim at.
  const avr::TierStats& t = rigs[1]->board.cpu().tier_stats();
  EXPECT_GT(t.fused_pairs, 0u);
  EXPECT_GT(t.io_dispatches, 0u);
  EXPECT_GT(t.side_exits, 0u);
  EXPECT_GT(t.self_loops, 0u);
  EXPECT_GT(t.invalidations, 0u);
  EXPECT_GT(t.block_instructions, instructions / 4);
  EXPECT_GT(irqs, 0u);
  // The recording pair hit breakpoints (some ending a run), saw SP leave
  // its window, and the event tier really ran blocks.
  EXPECT_GE(tier_log.breakpoint_hits, 5u);
  EXPECT_GT(tier_log.sp_moves, 0u);
  EXPECT_GT(rigs[4]->board.cpu().tier_stats().block_instructions,
            rigs[4]->board.cpu().instructions_retired() / 4);
}

// --- Reference model for the chained 16-bit idioms ------------------------

struct Chain16 {
  enum Kind { kSubiSbci, kSubSbc, kAddAdc, kCpCpc } kind;
  std::uint16_t d, s;
};

/// Expected SREG bits C, Z, N, V, S after the pair, from 16-bit integer
/// arithmetic (the datasheet's multi-byte semantics), not from the
/// simulator's flag formulas. SBC/SBCI/CPC chain Z across bytes; ADC
/// does not.
std::uint8_t reference_flags(const Chain16& c) {
  const bool add = c.kind == Chain16::kAddAdc;
  const unsigned wide = add ? unsigned{c.d} + c.s : unsigned{c.d} - c.s;
  const auto r = static_cast<std::uint16_t>(wide);
  const bool carry = add ? wide > 0xFFFF : c.d < c.s;
  const bool z = add ? (r >> 8) == 0 : r == 0;
  const bool n = (r >> 15) & 1;
  const bool v = add ? ((~(c.d ^ c.s) & (c.d ^ r)) >> 15) & 1
                     : (((c.d ^ c.s) & (c.d ^ r)) >> 15) & 1;
  return static_cast<std::uint8_t>((carry << avr::kC) | (z << avr::kZ) |
                                   (n << avr::kN) | (v << avr::kV) |
                                   ((n != v) << avr::kS));
}

std::uint16_t reference_result(const Chain16& c) {
  switch (c.kind) {
    case Chain16::kAddAdc: return static_cast<std::uint16_t>(c.d + c.s);
    case Chain16::kCpCpc: return c.d;
    default: return static_cast<std::uint16_t>(c.d - c.s);
  }
}

TEST(IsaDiff, ChainedSixteenBitIdiomsMatchReferenceModel) {
  constexpr std::uint8_t kFlagMask = (1 << avr::kC) | (1 << avr::kZ) |
                                     (1 << avr::kN) | (1 << avr::kV) |
                                     (1 << avr::kS);
  constexpr int kCasesPerProgram = 150;
  constexpr std::uint16_t kOut = 0x400;
  support::Rng rng(0xC4A1);
  avr::Cpu interp(avr::atmega2560()), tier(avr::atmega2560());
  interp.set_exec_tier(false);
  tier.set_exec_tier(true);

  for (int p = 0; p < 24; ++p) {
    std::vector<Chain16> cases;
    std::vector<std::uint16_t> words;
    const auto ldi = [&](std::uint8_t r, std::uint8_t v) {
      words.push_back(tc::enc_imm(Op::Ldi, r, v));
    };
    for (int i = 0; i < kCasesPerProgram; ++i) {
      Chain16 c{static_cast<Chain16::Kind>(rng.below(4)),
                static_cast<std::uint16_t>(rng.below(0x10000)),
                static_cast<std::uint16_t>(rng.below(0x10000))};
      const bool add = c.kind == Chain16::kAddAdc;
      switch (rng.below(4)) {
        case 0: break;  // uniform
        case 1: c.s = add ? static_cast<std::uint16_t>(-c.d) : c.d; break;
        default: {
          // Low byte of the result nonzero, high byte zero: the case a
          // broken Z chain gets wrong.
          std::uint8_t sl = static_cast<std::uint8_t>(c.s);
          const auto dl = static_cast<std::uint8_t>(c.d);
          const auto dh = static_cast<std::uint8_t>(c.d >> 8);
          if (static_cast<std::uint8_t>(add ? dl + sl : dl - sl) == 0) ++sl;
          const std::uint8_t sh =
              add ? static_cast<std::uint8_t>(-(dh + (dl + sl > 0xFF)))
                  : static_cast<std::uint8_t>(dh - (dl < sl));
          c.s = static_cast<std::uint16_t>(sl | (sh << 8));
          break;
        }
      }
      cases.push_back(c);
      ldi(24, static_cast<std::uint8_t>(c.d));
      ldi(25, static_cast<std::uint8_t>(c.d >> 8));
      ldi(20, static_cast<std::uint8_t>(c.s));
      ldi(21, static_cast<std::uint8_t>(c.s >> 8));
      switch (c.kind) {
        case Chain16::kSubiSbci:
          words.push_back(tc::enc_imm(Op::Subi, 24, static_cast<std::uint8_t>(c.s)));
          words.push_back(
              tc::enc_imm(Op::Sbci, 25, static_cast<std::uint8_t>(c.s >> 8)));
          break;
        case Chain16::kSubSbc:
          words.push_back(tc::enc_two_reg(Op::Sub, 24, 20));
          words.push_back(tc::enc_two_reg(Op::Sbc, 25, 21));
          break;
        case Chain16::kAddAdc:
          words.push_back(tc::enc_two_reg(Op::Add, 24, 20));
          words.push_back(tc::enc_two_reg(Op::Adc, 25, 21));
          break;
        case Chain16::kCpCpc:
          words.push_back(tc::enc_two_reg(Op::Cp, 24, 20));
          words.push_back(tc::enc_two_reg(Op::Cpc, 25, 21));
          break;
      }
      words.push_back(tc::enc_in(2, avr::kIoSreg));
      const auto out = static_cast<std::uint16_t>(kOut + 3 * i);
      const tc::WordPair st[] = {tc::enc_sts(out, 24), tc::enc_sts(out + 1, 25),
                                 tc::enc_sts(out + 2, 2)};
      for (const auto& w : st) {
        words.push_back(w.first);
        words.push_back(w.second);
      }
    }
    words.push_back(tc::enc_no_operand(Op::Break));
    support::Bytes image;
    for (std::uint16_t w : words) {
      image.push_back(static_cast<std::uint8_t>(w & 0xFF));
      image.push_back(static_cast<std::uint8_t>(w >> 8));
    }
    for (avr::Cpu* cpu : {&interp, &tier}) {
      cpu->flash().erase();
      cpu->flash().program(image);
      cpu->reset();
      cpu->run(1'000'000);
      ASSERT_EQ(cpu->state(), avr::CpuState::Stopped);
      for (int i = 0; i < kCasesPerProgram; ++i) {
        const Chain16& c = cases[static_cast<std::size_t>(i)];
        const auto out = static_cast<std::uint16_t>(kOut + 3 * i);
        const auto result = static_cast<std::uint16_t>(
            cpu->data().raw(out) | (cpu->data().raw(out + 1) << 8));
        const std::uint8_t flags = cpu->data().raw(out + 2) & kFlagMask;
        ASSERT_EQ(result, reference_result(c))
            << (cpu == &tier ? "tier" : "interp") << " kind " << c.kind
            << " d " << c.d << " s " << c.s;
        ASSERT_EQ(flags, reference_flags(c))
            << (cpu == &tier ? "tier" : "interp") << " kind " << c.kind
            << " d " << c.d << " s " << c.s;
      }
    }
  }
  EXPECT_GT(tier.tier_stats().fused_pairs, 0u);
}

}  // namespace
}  // namespace mavr
