// detect::Engine unit behaviour: each detector exercised in isolation on
// hand-assembled programs — stepped on the traced interpreter, and run on
// the superblock tier, which delivers the engine's hooks from its blocks —
// plus the parse/format helpers and the master-processor wiring (trip →
// recovery reflash → latch cleared).
#include <gtest/gtest.h>

#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "defense/preprocess.hpp"
#include "detect/engine.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "toolchain/encode.hpp"

namespace mavr {
namespace {

using avr::Cpu;
using avr::CpuState;
using avr::Op;
using detect::Detector;
using detect::Engine;
using detect::EngineConfig;
using namespace mavr::toolchain;

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : cpu_(avr::atmega2560()) {}

  support::Bytes to_bytes(std::initializer_list<std::uint16_t> words) {
    support::Bytes bytes;
    for (std::uint16_t w : words) {
      bytes.push_back(static_cast<std::uint8_t>(w & 0xFF));
      bytes.push_back(static_cast<std::uint8_t>(w >> 8));
    }
    return bytes;
  }

  void load(std::initializer_list<std::uint16_t> words) {
    program_ = to_bytes(words);
    cpu_.flash().erase();
    cpu_.flash().program(program_);
    cpu_.reset();
  }

  void arm(unsigned detectors) {
    EngineConfig config;
    config.detectors = detectors;
    engine_ = std::make_unique<Engine>(config);
    engine_->arm(cpu_);
    if (detectors & detect::kDetectReturnCfi) {
      engine_->rebuild(program_,
                       static_cast<std::uint32_t>(program_.size()));
    }
  }

  /// Runs `body` twice: with the tier off, step() interprets `n`
  /// instructions; with it on, step() is one run() that the tiny programs
  /// here all end (BREAK or a fault) within its budget.
  template <class Body>
  void in_both_modes(Body body) {
    for (const bool tier : {false, true}) {
      SCOPED_TRACE(tier ? "tier" : "interpreter");
      tier_ = tier;
      cpu_.set_exec_tier(tier);
      body();
    }
  }

  void step(int n = 1) {
    if (tier_) {
      cpu_.run(10'000);
      return;
    }
    for (int i = 0; i < n; ++i) cpu_.step();
  }

  bool tier_ = false;
  Cpu cpu_;
  support::Bytes program_;
  std::unique_ptr<Engine> engine_;
};

// --- Parse / format helpers --------------------------------------------------

TEST(DetectorSet, NamesRoundTrip) {
  EXPECT_EQ(detect::detector_set_name(detect::kDetectNone), "none");
  EXPECT_EQ(detect::detector_set_name(detect::kDetectAll),
            "canary+shadow+sp-bounds+cfi");
  EXPECT_EQ(detect::detector_set_name(detect::kDetectShadowStack |
                                      detect::kDetectReturnCfi),
            "shadow+cfi");
  for (unsigned mask = 0; mask <= detect::kDetectAll; ++mask) {
    const auto parsed =
        detect::parse_detector_set(detect::detector_set_name(mask));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mask);
  }
}

TEST(DetectorSet, ParseAcceptsAliasesAndRejectsJunk) {
  EXPECT_EQ(detect::parse_detector_set("all"), detect::kDetectAll);
  EXPECT_EQ(detect::parse_detector_set("none"), detect::kDetectNone);
  EXPECT_EQ(detect::parse_detector_set("cfi,canary"),
            detect::kDetectReturnCfi | detect::kDetectCanary);
  EXPECT_FALSE(detect::parse_detector_set("shadow,bogus").has_value());
  EXPECT_FALSE(detect::parse_detector_set("dep").has_value());
}

// --- Shadow stack ------------------------------------------------------------

TEST_F(EngineTest, ShadowStackSilentOnMatchedCallRet) {
  in_both_modes([&] {
    // call 3 ; break ; ret — the ret pops exactly what the call pushed.
    load({enc_abs_jump(Op::Call, 3).first, enc_abs_jump(Op::Call, 3).second,
          enc_no_operand(Op::Break), enc_no_operand(Op::Ret)});
    arm(detect::kDetectShadowStack);
    step(3);
    EXPECT_EQ(cpu_.state(), CpuState::Stopped);
    EXPECT_FALSE(engine_->tripped());
    EXPECT_EQ(engine_->total_trips(), 0u);
    // The call and its predicted ret ran inside one superblock.
    if (tier_) {
      EXPECT_GT(cpu_.tier_stats().block_instructions, 0u);
    }
  });
}

TEST_F(EngineTest, ShadowStackFlagsOverwrittenReturnSlot) {
  in_both_modes([&] {
    // The callee rewrites the low byte of its own return slot (0x21FF after
    // the reset-time call) before returning — the minimal stack smash.
    load({enc_imm(Op::Ldi, 24, 0x42),                // w0
          enc_abs_jump(Op::Call, 5).first,           // w1
          enc_abs_jump(Op::Call, 5).second,          // w2
          enc_no_operand(Op::Break),                 // w3 (legit return: pc=3)
          0x0000,                                    // w4
          enc_sts(0x21FF, 24).first,                 // w5
          enc_sts(0x21FF, 24).second,                // w6
          enc_no_operand(Op::Ret)});                 // w7
    arm(detect::kDetectShadowStack);
    step(4);  // ldi, call, sts, ret
    ASSERT_TRUE(engine_->tripped());
    ASSERT_FALSE(engine_->verdicts().empty());
    const detect::Verdict& v = engine_->verdicts().front();
    EXPECT_EQ(v.detector, Detector::kShadowStack);
    EXPECT_EQ(v.value, 0x42u);  // the popped (attacker) target
    EXPECT_EQ(engine_->total_trips(), 1u);
  });
}

TEST_F(EngineTest, RetOnEmptyShadowIgnored) {
  in_both_modes([&] {
    // A ret with no mirrored call (engine attached mid-run / entry frame):
    // stage a fake return address by hand, then execute a bare ret.
    load({enc_no_operand(Op::Ret), enc_no_operand(Op::Break)});
    arm(detect::kDetectShadowStack);
    cpu_.set_sp(0x21FC);
    cpu_.data().set_raw(0x21FD, 0);
    cpu_.data().set_raw(0x21FE, 0);
    cpu_.data().set_raw(0x21FF, 1);  // ret → word 1
    step(2);
    EXPECT_EQ(cpu_.state(), CpuState::Stopped);
    EXPECT_FALSE(engine_->tripped());
  });
}

// --- SP bounds ---------------------------------------------------------------

TEST_F(EngineTest, SpBoundsSilentInsideLegalRegion) {
  in_both_modes([&] {
    // Move SP around within [RAMEND-511, RAMEND].
    load({enc_imm(Op::Ldi, 29, 0x20), enc_imm(Op::Ldi, 28, 0x00),
          enc_out(avr::kIoSph, 29), enc_out(avr::kIoSpl, 28),
          enc_no_operand(Op::Break)});
    arm(detect::kDetectSpBounds);
    EXPECT_EQ(engine_->stack_lo(), 0x2000);
    EXPECT_EQ(engine_->stack_hi(), 0x21FF);
    step(5);
    EXPECT_FALSE(engine_->tripped());
  });
}

TEST_F(EngineTest, SpBoundsFlagsPivotBelowStackFloor) {
  in_both_modes([&] {
    // The V3-style pivot: SPH ← 0x1A puts SP below the legal floor on the
    // very first half of the pivot write.
    load({enc_imm(Op::Ldi, 29, 0x1A), enc_out(avr::kIoSph, 29),
          enc_no_operand(Op::Break)});
    arm(detect::kDetectSpBounds);
    step(2);
    ASSERT_TRUE(engine_->tripped());
    const detect::Verdict& v = engine_->verdicts().front();
    EXPECT_EQ(v.detector, Detector::kSpBounds);
    EXPECT_EQ(v.value, 0x1AFFu);  // new SP: 0x1A:FF (low byte still reset-time)
    // Edge-triggered: staying outside fires no further verdicts.
    EXPECT_EQ(engine_->total_trips(), 1u);
  });
}

// --- Canary / stack-slot integrity -------------------------------------------

TEST_F(EngineTest, CanaryFlagsSmashedSlotAtFault) {
  in_both_modes([&] {
    // V1 in miniature: the callee smashes its return slot, then the core
    // faults (invalid opcode) while the frame is still live.
    load({enc_abs_jump(Op::Call, 3).first, enc_abs_jump(Op::Call, 3).second,
          enc_no_operand(Op::Break),
          enc_imm(Op::Ldi, 24, 0x99),                // w3
          enc_sts(0x21FF, 24).first,                 // w4
          enc_sts(0x21FF, 24).second,                // w5
          0x0001});                                  // w6: reserved opcode
    arm(detect::kDetectCanary);
    step(4);
    EXPECT_EQ(cpu_.state(), CpuState::Faulted);
    ASSERT_TRUE(engine_->tripped());
    const detect::Verdict& v = engine_->verdicts().front();
    EXPECT_EQ(v.detector, Detector::kCanary);
    EXPECT_EQ(v.value, 0x21FDu);  // the 3-byte slot's lowest address
  });
}

TEST_F(EngineTest, CanarySilentWithoutFault) {
  in_both_modes([&] {
    // V2's defining property: the smashed slot is popped by a clean return
    // and the core keeps running — frame-free time must NOT be verified, so
    // the canary detector stays silent (the shadow stack is what catches
    // this; see the campaign hierarchy tests).
    load({enc_abs_jump(Op::Call, 4).first, enc_abs_jump(Op::Call, 4).second,
          enc_no_operand(Op::Break),                 // w2 (legit return)
          enc_no_operand(Op::Break),                 // w3 (attacker landing)
          enc_imm(Op::Ldi, 24, 0x03),                // w4: redirect lo byte → 3
          enc_sts(0x21FF, 24).first,                 // w5
          enc_sts(0x21FF, 24).second,                // w6
          enc_no_operand(Op::Ret)});                 // w7
    arm(detect::kDetectCanary);
    step(5);  // call, ldi, sts, ret, break (attacker landing)
    EXPECT_EQ(cpu_.state(), CpuState::Stopped);
    EXPECT_FALSE(engine_->tripped());
  });
}

TEST_F(EngineTest, CanaryWindowEndsBelowTheInnermostFrame) {
  // The published SP window lets the tier skip SP moves that cannot act:
  // it stays inside the SP-bounds region and ends one below the SP whose
  // return retires the innermost frame.
  load({enc_abs_jump(Op::Call, 3).first, enc_abs_jump(Op::Call, 3).second,
        enc_no_operand(Op::Break), enc_no_operand(Op::Ret)});
  arm(detect::kDetectCanary | detect::kDetectSpBounds);
  EXPECT_EQ(engine_->interest().sp_lo, 0x2000);
  EXPECT_EQ(engine_->interest().sp_hi, 0x21FF);
  step(1);  // call: slot 0x21FD..0x21FF, retired when SP is back at 0x21FF
  EXPECT_EQ(cpu_.sp(), 0x21FC);
  EXPECT_EQ(engine_->interest().sp_hi, 0x21FE);
  step(1);  // ret
  EXPECT_EQ(engine_->interest().sp_hi, 0x21FF);
}

// --- Return-edge CFI ---------------------------------------------------------

TEST_F(EngineTest, CfiSilentOnCallSiteSuccessor) {
  in_both_modes([&] {
    load({enc_abs_jump(Op::Call, 3).first, enc_abs_jump(Op::Call, 3).second,
          enc_no_operand(Op::Break), enc_no_operand(Op::Ret)});
    arm(detect::kDetectReturnCfi);
    step(3);
    EXPECT_EQ(cpu_.state(), CpuState::Stopped);
    EXPECT_FALSE(engine_->tripped());
  });
}

TEST_F(EngineTest, CfiFlagsRetToNonSuccessor) {
  in_both_modes([&] {
    // Same smash as the shadow test, but judged statically: word 5 is a
    // gadget entry, not any call's successor.
    load({enc_imm(Op::Ldi, 24, 0x05),                // w0
          enc_abs_jump(Op::Call, 5).first,           // w1
          enc_abs_jump(Op::Call, 5).second,          // w2
          enc_no_operand(Op::Break),                 // w3
          0x0000,                                    // w4
          enc_sts(0x21FF, 24).first,                 // w5
          enc_sts(0x21FF, 24).second,                // w6
          enc_no_operand(Op::Ret)});                 // w7
    arm(detect::kDetectReturnCfi);
    step(4);
    ASSERT_TRUE(engine_->tripped());
    const detect::Verdict& v = engine_->verdicts().front();
    EXPECT_EQ(v.detector, Detector::kReturnCfi);
    EXPECT_EQ(v.value, 0x05u);
  });
}

TEST_F(EngineTest, CfiExemptsReti) {
  in_both_modes([&] {
    // An interrupt may return to any interrupted PC: a hand-staged RETI to a
    // non-successor must not trip (a plain RET to the same address would).
    load({enc_no_operand(Op::Reti), enc_no_operand(Op::Break),
          enc_no_operand(Op::Break)});
    arm(detect::kDetectReturnCfi);
    cpu_.set_sp(0x21FC);
    cpu_.data().set_raw(0x21FD, 0);
    cpu_.data().set_raw(0x21FE, 0);
    cpu_.data().set_raw(0x21FF, 2);  // word 2: no call successor there
    step(2);
    EXPECT_EQ(cpu_.state(), CpuState::Stopped);
    EXPECT_FALSE(engine_->tripped());
  });
}

// --- Latching and reset ------------------------------------------------------

TEST_F(EngineTest, ResetDynamicClearsLatchKeepsLog) {
  in_both_modes([&] {
    load({enc_imm(Op::Ldi, 29, 0x1A), enc_out(avr::kIoSph, 29),
          enc_no_operand(Op::Break)});
    arm(detect::kDetectSpBounds);
    step(2);
    ASSERT_TRUE(engine_->tripped());
    engine_->reset_dynamic();
    EXPECT_FALSE(engine_->tripped());
    EXPECT_EQ(engine_->total_trips(), 1u);
    EXPECT_EQ(engine_->verdicts().size(), 1u);
  });
}

// --- Master wiring -----------------------------------------------------------

const std::string& good_hex() {
  static const std::string hex = defense::preprocess_to_hex(
      firmware::generate(firmware::testapp(false),
                         toolchain::ToolchainOptions::mavr())
          .image);
  return hex;
}

TEST(MasterDetect, TripTriggersRecoveryReflashAndClearsLatch) {
  defense::ExternalFlash flash;
  sim::Board board;
  defense::MasterConfig cfg;
  cfg.watchdog_timeout_cycles = 200'000;
  defense::MasterProcessor master(flash, board, cfg);
  Engine engine;
  engine.arm(board.cpu());
  master.attach_detector(&engine);
  master.host_upload_hex(good_hex());
  master.boot();
  board.run_cycles(100'000);
  EXPECT_FALSE(master.service());

  // Drive a verdict straight through the hook interface: SP leaving the
  // legal region. The master must answer exactly like a crashed board.
  engine.on_sp_change(board.cpu(), 0x21F0, 0x1AFF);
  ASSERT_TRUE(engine.tripped());
  EXPECT_TRUE(master.service());
  EXPECT_EQ(master.health().detector_trips, 1u);
  EXPECT_EQ(master.attacks_detected(), 1u);
  EXPECT_EQ(master.randomizations(), 2u);  // recovery reflash happened
  // The recovery resynchronized the engine: latch cleared, board healthy.
  EXPECT_FALSE(engine.tripped());
  EXPECT_EQ(engine.total_trips(), 1u);
  board.run_cycles(100'000);
  EXPECT_FALSE(master.service());
}

TEST(MasterDetect, RandomizeDisabledProgramsContainerVerbatim) {
  const firmware::Firmware fw = firmware::generate(
      firmware::testapp(false), toolchain::ToolchainOptions::mavr());
  defense::ExternalFlash flash;
  sim::Board board;
  defense::MasterConfig cfg;
  cfg.randomize_enabled = false;
  cfg.set_readout_protection = false;  // so the test can read flash back
  defense::MasterProcessor master(flash, board, cfg);
  master.host_upload_hex(defense::preprocess_to_hex(fw.image));
  master.boot();

  // Identity permutation, and the flash holds the stock image bit for bit.
  const std::vector<std::size_t>& perm = master.current_permutation();
  ASSERT_EQ(perm.size(), master.symbol_count());
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
  const support::Bytes flash_now = board.read_flash();
  ASSERT_GE(flash_now.size(), fw.image.bytes.size());
  EXPECT_TRUE(std::equal(fw.image.bytes.begin(), fw.image.bytes.end(),
                         flash_now.begin()));
  // And the board still boots and flies.
  board.run_cycles(400'000);
  EXPECT_FALSE(board.crashed());
}

}  // namespace
}  // namespace mavr
