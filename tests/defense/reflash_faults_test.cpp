// Fault-injection plane and the self-healing reflash pipeline: schedule
// determinism, fault-free transparency, per-page retry/verify, the
// degradation ladder and the flash endurance budget (DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "defense/preprocess.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "support/fault.hpp"
#include "toolchain/assembler.hpp"
#include "toolchain/linker.hpp"

namespace mavr {
namespace {

using defense::ExternalFlash;
using defense::MasterConfig;
using defense::MasterHealth;
using defense::MasterProcessor;

const std::string& good_hex() {
  static const std::string hex = defense::preprocess_to_hex(
      firmware::generate(firmware::testapp(false),
                         toolchain::ToolchainOptions::mavr())
          .image);
  return hex;
}

/// A pathological application that boots but never feeds the watchdog.
const std::string& silent_hex() {
  static const std::string hex = [] {
    toolchain::FunctionBuilder main_fn("main");
    toolchain::Label spin = main_fn.make_label();
    main_fn.bind(spin);
    main_fn.rjmp(spin);
    toolchain::LinkInput in;
    in.functions.push_back(main_fn.take());
    return defense::preprocess_to_hex(toolchain::link(std::move(in)));
  }();
  return hex;
}

TEST(FaultPlane, DeterministicSchedule) {
  // Same config + seed must reproduce the exact fault schedule at every
  // site — this is what makes a campaign trial's faults replayable.
  const support::FaultConfig cfg = support::FaultConfig::uniform(0.3);
  support::FaultPlane a(cfg, support::Rng(99));
  support::FaultPlane b(cfg, support::Rng(99));
  ASSERT_TRUE(a.armed());
  for (int i = 0; i < 4096; ++i) {
    EXPECT_EQ(a.filter_read(0x5A), b.filter_read(0x5A));
  }
  support::Bytes pa(256, 0x11);
  support::Bytes pb(256, 0x11);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.filter_page(pa), b.filter_page(pb));
    EXPECT_EQ(pa, pb);
  }
  for (std::uint32_t wear = 0; wear < 256; ++wear) {
    EXPECT_EQ(a.program_succeeds(wear), b.program_succeeds(wear));
  }
  EXPECT_GT(a.stats().total(), 0u);
  EXPECT_EQ(a.stats().total(), b.stats().total());
}

TEST(FaultPlane, SitesDrawFromIndependentStreams) {
  // Extra traffic at the read site must not shift the page-site schedule.
  const support::FaultConfig cfg = support::FaultConfig::uniform(0.3);
  support::FaultPlane quiet(cfg, support::Rng(7));
  support::FaultPlane noisy(cfg, support::Rng(7));
  for (int i = 0; i < 10'000; ++i) noisy.filter_read(0xA5);
  support::Bytes pq(256, 0x22);
  support::Bytes pn(256, 0x22);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(quiet.filter_page(pq), noisy.filter_page(pn));
    EXPECT_EQ(pq, pn);
  }
}

TEST(FaultPlane, DisarmedPlaneIsTransparent) {
  support::FaultPlane plane;
  EXPECT_FALSE(plane.armed());
  for (int v = 0; v < 256; ++v) {
    EXPECT_EQ(plane.filter_read(static_cast<std::uint8_t>(v)), v);
  }
  support::Bytes page(256, 0xA5);
  EXPECT_EQ(plane.filter_page(page), support::PageTransfer::kOk);
  EXPECT_EQ(page, support::Bytes(256, 0xA5));
  EXPECT_TRUE(plane.program_succeeds(9'999));
  EXPECT_EQ(plane.stats().total(), 0u);
}

support::Bytes random_container(std::size_t n) {
  support::Rng rng(31);
  support::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

TEST(ExternalFlashRead, BulkReadWithoutPlaneIsTheContents) {
  ExternalFlash flash;
  flash.store(random_container(100'000));
  EXPECT_EQ(flash.read_all(), flash.contents());
  support::FaultPlane disarmed;
  flash.attach_faults(&disarmed);
  EXPECT_EQ(flash.read_all(), flash.contents());
  EXPECT_EQ(disarmed.stats().total(), 0u);
}

TEST(ExternalFlashRead, BulkReadKeepsThePerByteFaultDrawOrder) {
  // read_all() and a read() loop over the same chip, each behind a plane
  // with the same seed, must see the same faults at the same bytes.
  support::FaultConfig cfg;
  cfg.read_bit_flip = 0.01;
  cfg.read_stuck_byte = 0.005;
  const support::Bytes data = random_container(100'000);
  support::FaultPlane bulk_plane(cfg, support::Rng(41));
  support::FaultPlane loop_plane(cfg, support::Rng(41));
  ExternalFlash bulk;
  ExternalFlash loop;
  bulk.store(data);
  loop.store(data);
  bulk.attach_faults(&bulk_plane);
  loop.attach_faults(&loop_plane);
  for (int pass = 0; pass < 2; ++pass) {
    support::Bytes looped(data.size());
    for (std::uint32_t i = 0; i < looped.size(); ++i) looped[i] = loop.read(i);
    const support::Bytes bulk_read = bulk.read_all();
    EXPECT_EQ(bulk_read, looped) << "pass " << pass;
    EXPECT_NE(bulk_read, data);
  }
  const support::FaultStats& a = bulk_plane.stats();
  const support::FaultStats& b = loop_plane.stats();
  EXPECT_GT(a.read_bit_flips, 0u);
  EXPECT_GT(a.read_stuck_bytes, 0u);
  EXPECT_EQ(a.read_bit_flips, b.read_bit_flips);
  EXPECT_EQ(a.read_stuck_bytes, b.read_stuck_bytes);
  EXPECT_EQ(a.total(), b.total());
}

TEST(ReflashPipeline, FaultFreeBehaviorIdentical) {
  // With no faults injected the hardened pipeline must be observationally
  // identical to running without a plane: same permutation, same timing
  // report, same servo trace.
  auto run = [](bool attach_disarmed_plane) {
    ExternalFlash flash;
    sim::Board board;
    support::FaultPlane plane;  // disarmed
    MasterConfig cfg;
    cfg.seed = 77;
    MasterProcessor master(flash, board, cfg);
    if (attach_disarmed_plane) {
      flash.attach_faults(&plane);
      board.attach_faults(&plane);
      master.attach_faults(&plane);
    }
    master.host_upload_hex(good_hex());
    master.boot();
    board.set_gyro(0, 123);
    board.run_cycles(1'000'000);
    const defense::StartupReport& r = *master.last_startup();
    return std::make_tuple(master.current_permutation(), r.total_ms,
                           r.transfer_ms, r.flash_ms, r.retry_ms,
                           r.page_retries, r.image_attempts,
                           board.servo(0).history());
  };
  const auto bare = run(false);
  EXPECT_EQ(bare, run(true));
  EXPECT_EQ(std::get<4>(bare), 0.0);  // no retry time when fault-free
}

TEST(ReflashPipeline, ContainerCorruptionFallsBackToLastGood) {
  ExternalFlash flash;
  sim::Board board;
  MasterProcessor master(flash, board, MasterConfig{});
  master.host_upload_hex(good_hex());
  master.boot();  // clean: establishes the last-known-good image
  const std::vector<std::size_t> healthy_perm = master.current_permutation();

  support::FaultConfig fc;
  fc.read_stuck_byte = 1.0;  // every external-flash byte reads back 0xFF
  support::FaultPlane plane(fc, support::Rng(5));
  flash.attach_faults(&plane);
  master.boot();  // the re-randomization cannot read a valid container

  EXPECT_EQ(master.health_state(), MasterHealth::kDegradedLastGood);
  EXPECT_GE(master.health().container_crc_failures, 1u);
  EXPECT_EQ(master.health().fallbacks_to_last_good, 1u);
  // The fallback re-released the previously verified image; the stale
  // permutation still flies the aircraft.
  EXPECT_EQ(master.current_permutation(), healthy_perm);
  board.run_cycles(500'000);
  EXPECT_FALSE(board.crashed());
}

TEST(ReflashPipeline, PageCorruptionRetriedAndRecovered) {
  ExternalFlash flash;
  sim::Board board;
  MasterConfig cfg;
  cfg.seed = 3;
  MasterProcessor master(flash, board, cfg);
  master.host_upload_hex(good_hex());

  support::FaultConfig fc;
  fc.page_corrupt = 0.2;  // 1 in 5 page transfers arrives bit-flipped
  support::FaultPlane plane(fc, support::Rng(11));
  master.attach_faults(&plane);
  master.boot();

  // Per-page CRC readback caught every corruption and retransmission
  // recovered the fresh image.
  EXPECT_EQ(master.health_state(), MasterHealth::kHealthy);
  EXPECT_GT(plane.stats().pages_corrupted, 0u);
  EXPECT_GT(master.health().page_retries, 0u);
  EXPECT_GT(master.health().page_verify_failures, 0u);
  ASSERT_TRUE(master.last_startup().has_value());
  const defense::StartupReport& r = *master.last_startup();
  EXPECT_GT(r.retry_ms, 0.0);
  EXPECT_EQ(r.total_ms, std::max(r.transfer_ms, r.flash_ms) + r.retry_ms);
  board.run_cycles(1'000'000);
  EXPECT_FALSE(board.crashed());
}

TEST(ReflashPipeline, DroppedPagesRetransmitted) {
  ExternalFlash flash;
  sim::Board board;
  MasterProcessor master(flash, board, MasterConfig{});
  master.host_upload_hex(good_hex());

  support::FaultConfig fc;
  fc.page_drop = 0.2;  // bootloader ack timeouts
  support::FaultPlane plane(fc, support::Rng(13));
  master.attach_faults(&plane);
  master.boot();

  EXPECT_EQ(master.health_state(), MasterHealth::kHealthy);
  EXPECT_GT(plane.stats().pages_dropped, 0u);
  EXPECT_GT(master.health().page_retries, 0u);
  board.run_cycles(500'000);
  EXPECT_FALSE(board.crashed());
}

TEST(ReflashPipeline, TotalProgramFailureHoldsBoardSafe) {
  ExternalFlash flash;
  sim::Board board;
  MasterProcessor master(flash, board, MasterConfig{});
  master.host_upload_hex(good_hex());
  master.boot();  // clean boot: a last-known-good image exists

  support::FaultConfig fc;
  fc.program_fail = 1.0;  // every program pulse fails from now on
  support::FaultPlane plane(fc, support::Rng(1));
  board.attach_faults(&plane);
  master.boot();

  // Neither the fresh image nor the fallback could be verified, so the
  // board is parked in its bootloader instead of released on a torn image.
  EXPECT_EQ(master.health_state(), MasterHealth::kHeldSafe);
  EXPECT_GE(master.health().holds_in_bootloader, 1u);
  EXPECT_GT(master.health().page_verify_failures, 0u);
  EXPECT_TRUE(board.in_bootloader());
  const std::uint64_t retired = board.cpu().instructions_retired();
  board.run_cycles(200'000);
  EXPECT_EQ(board.cpu().instructions_retired(), retired);  // held, not torn
}

TEST(ReflashPipeline, WearOutCoupledToEnduranceCounter) {
  ExternalFlash flash;
  sim::Board board;
  MasterProcessor master(flash, board, MasterConfig{});
  master.host_upload_hex(good_hex());

  support::FaultConfig fc;
  fc.wearout_threshold = 4;  // young part: first erase cycles are clean
  fc.wearout_fail = 1.0;
  support::FaultPlane plane(fc, support::Rng(2));
  board.attach_faults(&plane);

  master.boot();  // erase cycles 1..3: below the wear-out threshold
  master.boot();
  master.boot();
  EXPECT_EQ(master.health_state(), MasterHealth::kHealthy);
  EXPECT_EQ(plane.stats().wearout_failures, 0u);
  master.boot();  // 4th erase crosses the threshold: every pulse now fails
  EXPECT_EQ(master.health_state(), MasterHealth::kHeldSafe);
  EXPECT_GT(plane.stats().wearout_failures, 0u);
  EXPECT_TRUE(board.in_bootloader());
}

TEST(ReflashPipeline, EnduranceReserveStopsScheduledRerandomizations) {
  ExternalFlash flash;
  sim::Board board;
  MasterConfig cfg;
  cfg.endurance_budget = 5;
  cfg.endurance_reserve = 3;
  MasterProcessor master(flash, board, cfg);
  master.host_upload_hex(good_hex());
  master.boot();  // remaining 5 > reserve 3: randomizes
  master.boot();  // remaining 4 > 3: randomizes
  EXPECT_EQ(master.randomizations(), 2u);
  EXPECT_EQ(master.endurance_remaining(), 3);
  master.boot();  // at the reserve: skipped, nothing spent
  master.boot();
  EXPECT_EQ(master.randomizations(), 2u);
  EXPECT_EQ(master.endurance_remaining(), 3);
  EXPECT_EQ(master.health().scheduled_skips, 2u);
}

TEST(ReflashPipeline, WatchdogReflashRunsBudgetToZeroNeverNegative) {
  ExternalFlash flash;
  sim::Board board;
  MasterConfig cfg;
  cfg.endurance_budget = 3;
  cfg.endurance_reserve = 2;
  cfg.watchdog_timeout_cycles = 100'000;
  MasterProcessor master(flash, board, cfg);
  master.host_upload_hex(silent_hex());
  master.boot();  // remaining 3 > reserve 2: randomizes
  EXPECT_EQ(master.endurance_remaining(), 2);

  // Attack-triggered reflashes keep priority past the scheduled reserve
  // and spend the budget down to exactly zero...
  board.run_cycles(200'000);
  EXPECT_TRUE(master.service());
  EXPECT_EQ(master.endurance_remaining(), 1);
  board.run_cycles(200'000);
  EXPECT_TRUE(master.service());
  EXPECT_EQ(master.endurance_remaining(), 0);
  EXPECT_EQ(master.randomizations(), 3u);

  // ...and once it is truly gone, detection restarts the existing image
  // instead of driving the counter negative.
  board.run_cycles(200'000);
  EXPECT_TRUE(master.service());
  EXPECT_EQ(master.endurance_remaining(), 0);
  EXPECT_EQ(master.randomizations(), 3u);
  EXPECT_GE(master.health().endurance_exhausted_events, 1u);
}

}  // namespace
}  // namespace mavr
