// Campaign-trial benchmark program.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//   campaign_bench --record              (prints expected.hpp rows)
//   campaign_bench --check-determinism   (traced replay twice, exact counters)
//
// --trace 0 runs the workload's campaign back to back for --seconds through
// the public campaign API (in-process thread pool, or the in-process
// campaignd coordinator + workers + client) and prints the end-to-end
// metrics. --trace 1 is a separate pass that replays a sample of the same
// trials with spans around every public call and prints per-layer metrics.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. See README.md for the workloads, metrics and noise notes.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/analyze.hpp"
#include "attack/gadgets.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/worker.hpp"
#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "detect/engine.hpp"
#include "expected.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "sim/ground.hpp"
#include "spans.hpp"
#include "support/crc.hpp"
#include "support/fault.hpp"
#include "support/parse.hpp"

namespace campaignbench {
namespace {

using namespace mavr;
using campaign::CampaignConfig;
using campaign::CampaignStats;
using campaign::Scenario;
using campaign::TrialResult;

/// Every workload drives its load from one process with two workers.
constexpr unsigned kWorkers = 2;
/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupSeconds per run; setup_s is the median. A testapp set-up takes
/// ~40 ms, so the time floor gives it ~25 samples.
constexpr int kSetupReps = 9;
constexpr double kSetupSeconds = 1.0;
/// Timed batches per run, at least (the first, untimed, is a warm-up).
constexpr int kMinBatches = 5;
/// Seeds whose CampaignStats are recorded in expected.hpp.
constexpr std::uint64_t kRecordedSeeds[] = {1, 97};
/// A run cycles through this many campaigns, with root seeds derived from
/// --seed, so its trial mix (how many trials are detected early, how many
/// fly every slice) averages over kCampaignsPerRun x trials trials instead
/// of hanging on one campaign's draw.
constexpr std::uint64_t kCampaignsPerRun = 4;

struct Workload {
  const char* name;
  Scenario scenario;
  bool arduplane;   ///< firmware::arduplane(true), else testapp(true)
  bool service;     ///< through campaignd, else the in-process pool
  /// Trials per campaign: a multiple of kChunkTrials * kWorkers so no
  /// tail chunk leaves a worker idle.
  std::uint64_t trials;
  std::uint64_t sample;  ///< trials replayed by the traced pass
};

constexpr Workload kWorkloads[] = {
    {"v2-testapp", Scenario::kV2, false, false, 256, 64},
    {"detect-v2-testapp", Scenario::kDetectSweep, false, false, 256, 32},
    {"v2-arduplane", Scenario::kV2, true, false, 128, 16},
    {"fault-testapp-svc", Scenario::kFaultSweep, false, true, 512, 64},
};

static_assert(kWorkloads[0].trials % (campaign::kChunkTrials * kWorkers) == 0);
static_assert(kWorkloads[1].trials % (campaign::kChunkTrials * kWorkers) == 0);
static_assert(kWorkloads[2].trials % (campaign::kChunkTrials * kWorkers) == 0);
static_assert(kWorkloads[3].trials % (campaign::kChunkTrials * kWorkers) == 0);

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The run's k-th campaign; campaign 0 has --seed itself as its root seed.
CampaignConfig make_config(const Workload& w, std::uint64_t seed,
                           std::uint64_t k = 0) {
  CampaignConfig c;
  c.scenario = w.scenario;
  c.trials = w.trials;
  c.jobs = kWorkers;
  c.seed = k == 0 ? seed : support::Rng::derive_seed(seed, k);
  c.exec_tier = true;
  if (w.scenario == Scenario::kDetectSweep) {
    c.detectors = detect::kDetectAll;
    c.detect_attack = campaign::DetectAttack::kV2;
    c.detect_randomize = false;
  }
  if (w.scenario == Scenario::kFaultSweep) c.fault_rate = 0.01;
  return c;
}

firmware::AppProfile profile_of(const Workload& w) {
  return w.arduplane ? firmware::arduplane(/*vulnerable=*/true)
                     : firmware::testapp(/*vulnerable=*/true);
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size()))) - 1;
  return v[std::min(i, v.size() - 1)];
}

// --- Correctness gate ---------------------------------------------------------

std::array<std::uint64_t, kStatsWords> stats_words(const CampaignStats& s) {
  static_assert(sizeof(CampaignStats) == kStatsWords * 8);
  std::array<std::uint64_t, kStatsWords> out{};
  std::memcpy(out.data(), &s, sizeof s);
  return out;
}

bool same_stats(const CampaignStats& a, const CampaignStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::optional<CampaignStats> recorded_stats(const Workload& w,
                                            std::uint64_t seed,
                                            std::uint64_t k) {
  for (const ExpectedStats& e : kExpected) {
    if (std::string_view(e.workload) == w.name && e.seed == seed &&
        e.campaign == k) {
      CampaignStats s;
      std::memcpy(static_cast<void*>(&s), e.words.data(), sizeof s);
      return s;
    }
  }
  return std::nullopt;
}

/// Invariants any correct aggregate satisfies, whatever the seed.
bool plausible(const Workload& w, const CampaignStats& s) {
  return s.trials == w.trials && s.successes <= s.trials &&
         s.detections <= s.trials && s.degradations <= s.trials &&
         s.detector_trips <= s.trials && s.total_cycles > 0 &&
         std::isfinite(s.mean_attempts) && std::isfinite(s.mean_cycles);
}

// --- campaignd in one process ------------------------------------------------

/// A coordinator on an AF_UNIX socket plus kWorkers run_worker threads;
/// the benchmark thread is the client (three connections in all).
class Service {
 public:
  explicit Service(std::string socket_path) : path_(std::move(socket_path)) {
    campaignd::CoordinatorConfig cc;
    cc.listen_endpoint = "unix:" + path_;
    cc.wait_hint_ms = 2;
    // One chunk per assignment. At the default grain of 4 the rate-scaled
    // split of a campaign's chunks between the two workers depends on
    // host timing, and an unlucky split idles one worker for a third of
    // the campaign: wall time then varies far more than CPU time.
    cc.assign_chunks = 1;
    coordinator_ = std::make_unique<campaignd::Coordinator>(cc);
    coordinator_->start();
    endpoint_ = coordinator_->endpoint();
    for (unsigned i = 0; i < kWorkers; ++i) {
      workers_.emplace_back([this, i] {
        campaignd::WorkerOptions options;
        options.connect_attempts = 20;
        options.backoff_ms = 5;
        options.backoff_seed = i + 1;
        options.stop = &stop_;
        try {
          campaignd::run_worker(endpoint_, options);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "campaignd worker %u: %s\n", i, e.what());
          worker_failed_.store(true);
        }
      });
    }
    // Connected: one live handler per worker on the coordinator.
    const std::int64_t t0 = now_ns();
    while (coordinator_->handler_count() < kWorkers) {
      if (seconds_since(t0) > 10) {
        shutdown();  // the destructor does not run for a throwing ctor
        throw std::runtime_error("campaignd workers did not connect");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~Service() { shutdown(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  CampaignStats run(const CampaignConfig& config) {
    if (worker_failed_.load()) throw std::runtime_error("a worker failed");
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint_, config);
    if (!submit.ok) throw std::runtime_error("submit: " + submit.error);
    const campaignd::PollOutcome done = campaignd::wait_campaign(
        endpoint_, submit.campaign_id, /*interval_ms=*/5, /*timeout_ms=*/60'000);
    if (!done.ok) throw std::runtime_error("wait: " + done.error);
    return done.status.stats;
  }
  campaignd::CoordinatorCounters counters() {
    return coordinator_->counters();
  }

 private:
  void shutdown() {
    stop_.store(true);
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    coordinator_->stop();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::string endpoint_;
  std::unique_ptr<campaignd::Coordinator> coordinator_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> worker_failed_{false};
  std::vector<std::thread> workers_;
};

// --- Result line --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- End-to-end pass (--trace 0) ---------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

int run_end_to_end(const Args& a) {
  const Workload& w = *a.workload;
  const std::string sock = a.out_dir + "/svc-" + std::to_string(getpid()) +
                           ".sock";

  // Set-up, repeated: everything before the first trial.
  std::vector<double> setup_s;
  std::optional<campaign::SimFixture> fixture;
  std::unique_ptr<Service> service;
  const std::int64_t setup_start = now_ns();
  for (int rep = 0;
       rep < kSetupReps || seconds_since(setup_start) < kSetupSeconds; ++rep) {
    fixture.reset();
    service.reset();
    const std::int64_t t0 = now_ns();
    fixture.emplace(campaign::make_sim_fixture(profile_of(w)));
    if (w.service) service = std::make_unique<Service>(sock);
    setup_s.push_back(seconds_since(t0));
    std::fprintf(stderr, "setup %d: %.4f s\n", rep, setup_s.back());
  }

  // Each campaign's reference aggregate: recorded for the recorded seeds;
  // otherwise the in-process campaign (service workload: the service must
  // match it bit for bit) or the campaign's first run (every later run of
  // it must repeat it).
  std::vector<CampaignConfig> configs;
  std::vector<std::optional<CampaignStats>> references;
  for (std::uint64_t k = 0; k < kCampaignsPerRun; ++k) {
    configs.push_back(make_config(w, a.seed, k));
    references.push_back(recorded_stats(w, a.seed, k));
    if (!references.back() && w.service) {
      references.back() = campaign::run_campaign(configs.back(), *fixture);
    }
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> tps;
  std::vector<double> mcps;
  std::vector<double> cpu_ms;
  std::int64_t t_start = now_ns();
  // Batch 0 is an untimed warm-up; the clock starts after it.
  for (int batch = 0;; ++batch) {
    if (batch == 1) t_start = now_ns();
    if (batch > kMinBatches && seconds_since(t_start) >= a.seconds) break;
    const CampaignConfig& config = configs[batch % kCampaignsPerRun];
    std::optional<CampaignStats>& reference =
        references[batch % kCampaignsPerRun];
    attempted += config.trials;
    const double c0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    CampaignStats stats;
    try {
      stats = w.service ? service->run(config)
                        : campaign::run_campaign(config, *fixture);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "batch %d threw: %s\n", batch, e.what());
      failed += config.trials;
      correct = false;
      continue;
    }
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    if (!reference) reference = stats;
    if (!same_stats(stats, *reference) || !plausible(w, stats)) {
      std::fprintf(stderr, "batch %d: CampaignStats mismatch\n", batch);
      failed += config.trials;
      correct = false;
      continue;
    }
    std::fprintf(stderr, "batch %d: %.1f trials/s, %.3f ms cpu/trial%s\n",
                 batch, static_cast<double>(stats.trials) / wall,
                 cpu * 1e3 / static_cast<double>(stats.trials),
                 batch == 0 ? " (warm-up)" : "");
    if (batch == 0) continue;
    tps.push_back(static_cast<double>(stats.trials) / wall);
    mcps.push_back(static_cast<double>(stats.total_cycles) / wall / 1e6);
    cpu_ms.push_back(cpu * 1e3 / static_cast<double>(stats.trials));
  }
  service.reset();

  print_result(correct, attempted, failed,
               {{"trials_per_s", median(tps), "1/s"},
                {"sim_mcycles_per_s", median(mcps), "Mcycles/s"},
                {"cpu_ms_per_trial", median(cpu_ms), "ms"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"},
                {"ok_share",
                 static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted),
                 "ratio"}});
  return 0;
}

// --- Traced pass (--trace 1) -----------------------------------------------

/// Per-layer counter sums over the replayed trials, by metric name.
using Counters = std::map<std::string, double>;

/// Trace-pass state shared by the replica trial bodies.
struct Replay {
  SpanLog log;
  Counters sums;
  /// Set when a replica's decomposed boot disagrees with the master's.
  std::string drift;
};

/// Board::run_cycles inside an avr.run span (tier, no tracer) or a
/// detect.run span (engine armed: the traced interpreter).
void run_cycles(Replay& r, sim::Board& board, std::uint64_t cycles,
                bool armed) {
  const std::uint64_t c0 = board.cpu().cycles();
  const std::uint64_t i0 = board.cpu().instructions_retired();
  r.log.span(armed ? "detect.run" : "avr.run",
             [&] { board.run_cycles(cycles); });
  if (armed) {
    r.sums["detect.run_cycles"] +=
        static_cast<double>(board.cpu().cycles() - c0);
  } else {
    r.sums["avr.run_retired"] +=
        static_cast<double>(board.cpu().instructions_retired() - i0);
  }
}

/// Programs `image` through `board`'s bootloader exactly as
/// MasterProcessor::program_verified does on a fault-free link.
void program_image(Replay& r, sim::Board& board,
                   std::span<const std::uint8_t> image) {
  r.log.span("defense.erase", [&] {
    board.bootloader_enter();
    board.bootloader_erase();
  });
  const std::uint32_t page = board.cpu().spec().flash_page_bytes;
  r.log.span("defense.write_pages", [&] {
    support::Bytes wire;
    for (std::uint32_t off = 0; off < image.size(); off += page) {
      const std::uint32_t len = std::min<std::uint32_t>(
          page, static_cast<std::uint32_t>(image.size()) - off);
      const std::uint32_t want = support::crc32_ieee(image.subspan(off, len));
      wire.assign(image.begin() + off, image.begin() + off + len);
      r.log.span("defense.page_write",
                 [&] { board.bootloader_write_page(off, wire); });
      const std::uint32_t got = r.log.span("defense.page_readback", [&] {
        return support::crc32_ieee(board.bootloader_read_page(off, len));
      });
      if (got != want) {
        throw std::runtime_error("replica page readback mismatch");
      }
    }
  });
  r.log.span("defense.verify_image", [&] {
    if (support::crc32_ieee(board.bootloader_read_page(
            0, static_cast<std::uint32_t>(image.size()))) !=
        support::crc32_ieee(image)) {
      throw std::runtime_error("replica image readback mismatch");
    }
  });
  r.log.span("defense.release", [&] {
    board.set_readout_protection();
    board.bootloader_run_application();
  });
}

/// Calls MasterProcessor::boot()'s public parts on the boot's own inputs
/// (the external flash it reads, the seed it draws from, a scratch board)
/// and then the real boot. The parts are siblings of defense.boot, so
/// defense.boot_ms - sum(parts) is the unaccounted remainder.
void decomposed_boot(Replay& r, const defense::ExternalFlash& flash,
                     defense::MasterProcessor& master,
                     const defense::MasterConfig& mcfg,
                     const detect::EngineConfig* ecfg) {
  std::vector<std::size_t> permutation;
  r.log.span("defense.boot_parts", [&] {
    sim::Board scratch;
    std::optional<detect::Engine> engine;
    if (ecfg != nullptr) engine.emplace(*ecfg);
    const support::Bytes raw = r.log.span(
        "defense.flash_read", [&] { return flash.read_all(); });
    const defense::Container c = r.log.span(
        "defense.parse_container", [&] { return defense::parse_container(raw); });
    defense::RandomizeResult rr;
    r.log.span("defense.randomize", [&] {
      if (mcfg.randomize_enabled) {
        support::Rng rng(mcfg.seed);
        permutation = defense::draw_permutation(c.blob, rng);
        rr = defense::randomize_image(c.image, c.blob, permutation);
      } else {
        rr.image = c.image;
      }
    });
    double patched = 0;
    for (std::size_t i = 0; i < rr.image.size(); ++i) {
      patched += rr.image[i] != c.image[i] ? 1 : 0;
    }
    r.sums["defense.bytes_patched"] += patched;
    r.log.span("defense.program", [&] { program_image(r, scratch, rr.image); });
    if (engine) {
      r.log.span("detect.rebuild",
                 [&] { engine->rebuild(rr.image, c.blob.text_end); });
    }
  });
  r.log.span("defense.boot", [&] { master.boot(); });
  if (mcfg.randomize_enabled && master.current_permutation() != permutation) {
    r.drift = "decomposed boot drew a different permutation";
  }
}

/// Flash-level counters of one trial's board and master.
void count_defense(Replay& r, const sim::Board& board,
                   const defense::MasterProcessor& master,
                   std::uint64_t gen0, std::uint32_t erases0,
                   const support::FaultPlane* plane) {
  // Every erase and every page program bumps the flash generation.
  const double erases =
      static_cast<double>(board.flash_write_cycles() - erases0);
  const double pages =
      static_cast<double>(board.cpu().flash().generation() - gen0) - erases;
  const defense::ReflashHealth& h = master.health();
  r.sums["defense.pages_programmed"] += pages;
  r.sums["defense.page_retries"] += static_cast<double>(h.page_retries);
  r.sums["defense.image_retries"] += static_cast<double>(h.image_retries);
  r.sums["defense.container_crc_failures"] +=
      static_cast<double>(h.container_crc_failures);
  r.sums["defense.fallbacks"] += static_cast<double>(h.fallbacks_to_last_good);
  double lost = 0;  // page sends that never reached program_page
  if (plane != nullptr) {
    const support::FaultStats& f = plane->stats();
    lost = static_cast<double>(f.pages_dropped + f.programs_failed +
                               f.wearout_failures);
  }
  r.sums["defense.page_attempts"] += pages + lost;
}

void count_core(Replay& r, const sim::Board& board) {
  const avr::TierStats& t = board.cpu().tier_stats();
  r.sums["avr.retired"] +=
      static_cast<double>(board.cpu().instructions_retired());
  r.sums["avr.tier.blocks_translated"] +=
      static_cast<double>(t.blocks_translated);
  r.sums["avr.tier.side_exits"] += static_cast<double>(t.side_exits);
  r.sums["avr.tier.interp_steps"] += static_cast<double>(t.interp_steps);
  r.sums["avr.tier.invalidations"] += static_cast<double>(t.invalidations);
  r.sums["avr.tier.fused_pairs"] += static_cast<double>(t.fused_pairs);
  r.sums["avr.tier.block_instructions"] +=
      static_cast<double>(t.block_instructions);
}

/// The attacker's stealthy payload: the stock-derived plan with a randomly
/// chosen pivot gadget, as scenarios.cpp builds it for attack v2.
support::Bytes v2_payload(const campaign::SimFixture& fx,
                          const attack::Write3& write, support::Rng& rng) {
  attack::AttackPlan guess = fx.plan;
  guess.stk = fx.usable_stk[rng.below(fx.usable_stk.size())];
  return guess.builder().v2_payload({write});
}

// Replicas of the trial bodies in src/campaign/scenarios.cpp, for the
// configurations the workloads use (attack v2; fault sweep), with spans
// around every public call. The replica self-check compares each replayed
// TrialResult with make_trial_fn's for the same index and Rng.

TrialResult replay_board_trial(Replay& r, const campaign::SimFixture& fx,
                               const CampaignConfig& config,
                               support::Rng& rng) {
  defense::ExternalFlash flash;
  sim::Board board;
  const std::uint64_t gen0 = board.cpu().flash().generation();
  const std::uint32_t erases0 = board.flash_write_cycles();
  board.cpu().set_exec_tier(config.exec_tier);
  defense::MasterConfig mcfg;
  mcfg.seed = rng.next();
  mcfg.watchdog_timeout_cycles = config.watchdog_timeout_cycles;
  defense::MasterProcessor master(flash, board, mcfg);
  r.log.span("defense.upload", [&] { master.host_upload_hex(fx.container_hex); });
  decomposed_boot(r, flash, master, mcfg, nullptr);
  const std::uint64_t start_cycles = board.cpu().cycles();
  run_cycles(r, board, config.warmup_cycles, false);

  const attack::Write3 write{fx.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
  const support::Bytes payload = v2_payload(fx, write, rng);
  sim::GroundStation gcs(board);
  r.log.span("sim.payload_send", [&] { gcs.send_raw_param_set(payload); });

  TrialResult result;
  auto landed = [&] {
    return board.cpu().data().raw(fx.plan.gyro_cal_addr) == write.bytes[0] &&
           board.cpu().data().raw(fx.plan.gyro_cal_addr + 1) == write.bytes[1];
  };
  for (std::uint32_t s = 0; s < config.attack_slices; ++s) {
    run_cycles(r, board, config.slice_cycles, false);
    if (landed()) {
      result.success = true;
      break;
    }
    if (r.log.span("defense.service", [&] { return master.service(); })) {
      result.detected = true;
      break;
    }
  }
  result.attempts = 1;
  result.cycles = board.cpu().cycles() - start_cycles;
  count_core(r, board);
  count_defense(r, board, master, gen0, erases0, nullptr);
  return result;
}

TrialResult replay_detect_trial(Replay& r, const campaign::SimFixture& fx,
                                const CampaignConfig& config,
                                support::Rng& rng) {
  defense::ExternalFlash flash;
  sim::Board board;
  const std::uint64_t gen0 = board.cpu().flash().generation();
  const std::uint32_t erases0 = board.flash_write_cycles();
  board.cpu().set_exec_tier(config.exec_tier);
  defense::MasterConfig mcfg;
  mcfg.seed = rng.next();
  mcfg.watchdog_timeout_cycles = config.watchdog_timeout_cycles;
  mcfg.randomize_enabled = config.detect_randomize;
  defense::MasterProcessor master(flash, board, mcfg);

  detect::EngineConfig ecfg;
  ecfg.detectors = config.detectors;
  detect::Engine engine(ecfg);
  engine.arm(board.cpu());
  master.attach_detector(&engine);

  r.log.span("defense.upload", [&] { master.host_upload_hex(fx.container_hex); });
  decomposed_boot(r, flash, master, mcfg, &ecfg);
  const std::uint64_t start_cycles = board.cpu().cycles();
  run_cycles(r, board, config.warmup_cycles, true);

  const attack::Write3 write{fx.plan.gyro_cal_addr, {0xD1, 0x07, 0x00}};
  const support::Bytes payload = v2_payload(fx, write, rng);
  const std::uint64_t attack_cycle = board.cpu().cycles();
  sim::GroundStation gcs(board);
  r.log.span("sim.payload_send", [&] { gcs.send_raw_param_set(payload); });

  TrialResult result;
  auto landed = [&] {
    return board.cpu().data().raw(fx.plan.gyro_cal_addr) == write.bytes[0] &&
           board.cpu().data().raw(fx.plan.gyro_cal_addr + 1) == write.bytes[1];
  };
  for (std::uint32_t s = 0; s < config.attack_slices; ++s) {
    run_cycles(r, board, config.slice_cycles, true);
    if (!result.success && landed()) result.success = true;
    if (r.log.span("defense.service", [&] { return master.service(); })) {
      result.detected = true;
      result.detector_fired = engine.total_trips() > 0;
      const std::uint64_t now = board.cpu().cycles();
      std::uint64_t at = now;
      if (!engine.verdicts().empty()) at = engine.verdicts().front().cycle;
      result.ttd_cycles = at > attack_cycle ? at - attack_cycle : 0;
      break;
    }
  }
  result.attempts = 1;
  result.cycles = board.cpu().cycles() - start_cycles;
  r.sums["detect.trips"] += static_cast<double>(engine.total_trips());
  count_core(r, board);
  count_defense(r, board, master, gen0, erases0, nullptr);
  return result;
}

TrialResult replay_fault_trial(Replay& r, const campaign::SimFixture& fx,
                               const CampaignConfig& config,
                               support::Rng& rng) {
  defense::ExternalFlash flash;
  sim::Board board;
  const std::uint64_t gen0 = board.cpu().flash().generation();
  const std::uint32_t erases0 = board.flash_write_cycles();
  board.cpu().set_exec_tier(config.exec_tier);
  defense::MasterConfig mcfg;
  mcfg.seed = rng.next();
  mcfg.watchdog_timeout_cycles = config.watchdog_timeout_cycles;
  defense::MasterProcessor master(flash, board, mcfg);
  r.log.span("defense.upload", [&] { master.host_upload_hex(fx.container_hex); });
  decomposed_boot(r, flash, master, mcfg, nullptr);
  const std::uint64_t start_cycles = board.cpu().cycles();

  support::FaultPlane plane(support::FaultConfig::uniform(config.fault_rate),
                            rng.fork(1));
  flash.attach_faults(&plane);
  board.attach_faults(&plane);
  master.attach_faults(&plane);
  r.log.span("defense.reboot", [&] { master.boot(); });

  TrialResult result;
  result.degraded = master.health_state() != defense::MasterHealth::kHealthy;
  result.success = !result.degraded;
  result.attempts = 1.0 + static_cast<double>(master.health().page_retries +
                                              master.health().image_retries);
  if (!board.in_bootloader()) {
    if (master.last_startup()) {
      result.startup_ms = master.last_startup()->total_ms;
    }
    run_cycles(r, board, config.slice_cycles, false);
    if (board.crashed()) {
      result.success = false;
      result.degraded = true;
    }
  }
  result.cycles = board.cpu().cycles() - start_cycles;
  count_core(r, board);
  count_defense(r, board, master, gen0, erases0, &plane);
  return result;
}

TrialResult replay_trial(Replay& r, const campaign::SimFixture& fx,
                         const CampaignConfig& config, support::Rng& rng) {
  switch (config.scenario) {
    case Scenario::kFaultSweep:
      return replay_fault_trial(r, fx, config, rng);
    case Scenario::kDetectSweep:
      if (config.detect_attack != campaign::DetectAttack::kV2) break;
      return replay_detect_trial(r, fx, config, rng);
    case Scenario::kV2:
      return replay_board_trial(r, fx, config, rng);
    default:
      break;
  }
  throw std::logic_error("the replica covers only the workloads' scenarios");
}

bool same_result(const TrialResult& a, const TrialResult& b) {
  return a.success == b.success && a.detected == b.detected &&
         a.degraded == b.degraded && a.detector_fired == b.detector_fired &&
         std::bit_cast<std::uint64_t>(a.attempts) ==
             std::bit_cast<std::uint64_t>(b.attempts) &&
         std::bit_cast<std::uint64_t>(a.startup_ms) ==
             std::bit_cast<std::uint64_t>(b.startup_ms) &&
         a.cycles == b.cycles && a.ttd_cycles == b.ttd_cycles;
}

/// make_sim_fixture's steps, one span each.
campaign::SimFixture traced_fixture(SpanLog& log,
                                    const firmware::AppProfile& profile) {
  campaign::SimFixture fx;
  log.span("setup", [&] {
    fx.fw = log.span("firmware.generate", [&] {
      return firmware::generate(profile, toolchain::ToolchainOptions::mavr());
    });
    log.span("attack.plan", [&] {
      fx.plan = attack::analyze(fx.fw.image);
      attack::GadgetFinder finder(fx.fw.image);
      for (const attack::StkMoveGadget& g : finder.stk_moves()) {
        if (g.pops.size() <= 3) fx.usable_stk.push_back(g);
      }
    });
    fx.container_hex = log.span("defense.preprocess", [&] {
      return defense::preprocess_to_hex(fx.fw.image);
    });
    fx.policy = log.span("analysis.analyze", [&] {
      return analysis::Analyzer().analyze(fx.fw.image).policy;
    });
  });
  return fx;
}

struct ReplayOutcome {
  Counters counters;       ///< deterministic, per replayed trial
  Counters times;          ///< host ms, per replayed trial
  double traced_s = 0;     ///< replay wall, decomposed boot parts excluded
  double untraced_s = 0;   ///< make_trial_fn on the same trials
  std::uint64_t mismatches = 0;
  std::string drift;
};

/// Replays `w.sample` evenly spaced trials twice each: once through
/// make_trial_fn (untraced reference) and once through the spanned replica.
ReplayOutcome replay_sample(const Workload& w, const CampaignConfig& config,
                            const campaign::SimFixture& ref_fx,
                            const campaign::SimFixture& fx, Replay& r) {
  ReplayOutcome out;
  const campaign::TrialFn fn = campaign::make_trial_fn(config, &ref_fx);
  const support::Rng root(config.seed);
  const std::uint64_t stride = w.trials / w.sample;
  std::uint64_t detected = 0;
  double ttd = 0;
  for (std::uint64_t k = 0; k < w.sample; ++k) {
    const std::uint64_t idx = k * stride;
    TrialResult want;
    TrialResult got;
    auto reference = [&] {
      support::Rng rng = root.fork(idx);
      const std::int64_t t0 = now_ns();
      want = fn(idx, rng);
      out.untraced_s += seconds_since(t0);
    };
    auto replica = [&] {
      support::Rng rng = root.fork(idx);
      r.log.set_trial(idx);
      got = r.log.span("trial",
                       [&] { return replay_trial(r, fx, config, rng); });
    };
    // Alternate which runs first, so neither always gets the warm caches.
    if (k % 2 == 0) {
      reference();
      replica();
    } else {
      replica();
      reference();
    }
    if (!same_result(want, got)) ++out.mismatches;
    if (got.detected) {
      ++detected;
      ttd += static_cast<double>(got.ttd_cycles);
    }
  }
  const auto n = static_cast<double>(w.sample);
  for (const auto& [name, sum] : r.sums) out.counters[name] = sum / n;
  out.counters["detect.ttd_cycles"] =
      detected ? ttd / static_cast<double>(detected) : 0;
  const std::map<std::string, double> self = r.log.self_ms();
  const std::map<std::string, double> total = r.log.total_ms();
  for (const auto& [name, ms] : self) out.times[name] = ms / n;
  auto total_of = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  out.traced_s = (total_of("trial") - total_of("defense.boot_parts")) / 1e3;
  out.drift = r.drift;
  return out;
}

int run_traced(const Args& a) {
  const Workload& w = *a.workload;
  const CampaignConfig config = make_config(w, a.seed);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  Replay r;
  const campaign::SimFixture fx = traced_fixture(r.log, profile_of(w));
  const campaign::SimFixture ref_fx = campaign::make_sim_fixture(profile_of(w));
  const Counters setup = r.log.self_ms();
  r.log.clear();
  if (fx.container_hex != ref_fx.container_hex ||
      fx.fw.image.bytes != ref_fx.fw.image.bytes ||
      fx.usable_stk.size() != ref_fx.usable_stk.size()) {
    std::fprintf(stderr, "replica fixture differs from make_sim_fixture\n");
    correct = false;
  }

  // Replica self-check + per-layer spans and counters.
  const ReplayOutcome rep = replay_sample(w, config, ref_fx, fx, r);
  attempted += w.sample;
  if (rep.mismatches != 0 || !rep.drift.empty()) {
    std::fprintf(stderr, "replica self-check: %llu mismatched trials %s\n",
                 static_cast<unsigned long long>(rep.mismatches),
                 rep.drift.c_str());
    failed += w.sample;
    correct = false;
  }
  const std::string trace_path = a.out_dir + "/trace-" + w.name + "-" +
                                 std::to_string(a.seed) + ".jsonl";
  if (!r.log.write_jsonl(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }

  // Campaign layer: the TrialFn wrapped with a per-trial timer.
  const campaign::TrialFn fn = campaign::make_trial_fn(config, &ref_fx);
  std::vector<double> trial_ms(config.trials, 0.0);
  const campaign::TrialFn timed = [&](std::uint64_t i, support::Rng& rng) {
    const std::int64_t t0 = now_ns();
    TrialResult res = fn(i, rng);
    trial_ms[i] = static_cast<double>(now_ns() - t0) / 1e6;
    return res;
  };
  const std::optional<CampaignStats> expected = recorded_stats(w, a.seed, 0);
  const std::int64_t c0 = now_ns();
  const CampaignStats stats = campaign::run_trials(config, timed);
  const double campaign_wall_ms = static_cast<double>(now_ns() - c0) / 1e6;
  attempted += config.trials;
  if ((expected && !same_stats(stats, *expected)) || !plausible(w, stats)) {
    std::fprintf(stderr, "traced campaign: CampaignStats mismatch\n");
    failed += config.trials;
    correct = false;
  }
  double trial_sum_ms = 0;
  for (double ms : trial_ms) trial_sum_ms += ms;
  double idle_share =
      1.0 - trial_sum_ms / (campaign_wall_ms * static_cast<double>(kWorkers));

  // One chunk, serially.
  const std::int64_t k0 = now_ns();
  campaign::run_chunk_range(config, fn, 0, 1);
  const double chunk_ms = static_cast<double>(now_ns() - k0) / 1e6;

  // campaignd: the same campaign through the service, against the same
  // chunks run serially in-process.
  double overhead_ms_per_chunk = 0;
  double chunks_assigned = 0;
  double duplicate_results = 0;
  if (w.service) {
    const std::string sock = a.out_dir + "/svc-" + std::to_string(getpid()) +
                             ".sock";
    Service service(sock);
    // Warm-up: each worker builds its fixture on its first assignment.
    const CampaignStats warm = service.run(config);
    const campaignd::CoordinatorCounters before = service.counters();
    const std::int64_t s0 = now_ns();
    const CampaignStats svc = service.run(config);
    const double svc_wall_ms = static_cast<double>(now_ns() - s0) / 1e6;
    const campaignd::CoordinatorCounters after = service.counters();
    chunks_assigned =
        static_cast<double>(after.chunks_assigned - before.chunks_assigned);
    duplicate_results =
        static_cast<double>(after.duplicate_results - before.duplicate_results);
    const std::uint64_t n_chunks = campaign::num_chunks(config.trials);
    std::vector<campaign::ChunkResult> chunks;
    double chunk_sum_ms = 0;
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      const std::int64_t t0 = now_ns();
      std::vector<campaign::ChunkResult> one =
          campaign::run_chunk_range(config, fn, c, c + 1);
      chunk_sum_ms += static_cast<double>(now_ns() - t0) / 1e6;
      chunks.push_back(std::move(one.front()));
    }
    attempted += 3 * config.trials;
    if (!same_stats(svc, campaign::merge_chunk_results(chunks)) ||
        !same_stats(svc, stats) || !same_stats(warm, stats)) {
      std::fprintf(stderr, "campaignd aggregate differs from in-process\n");
      failed += 3 * config.trials;
      correct = false;
    }
    const double capacity_ms = svc_wall_ms * static_cast<double>(kWorkers);
    overhead_ms_per_chunk =
        (capacity_ms - chunk_sum_ms) / static_cast<double>(n_chunks);
    idle_share = 1.0 - chunk_sum_ms / capacity_ms;
  }

  const Counters& c = rep.counters;
  const Counters& t = rep.times;
  auto get = [](const Counters& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  const double avr_run_ms = get(t, "avr.run");
  const double detect_run_ms = get(t, "detect.run");
  const double program_ms =
      get(t, "defense.program") + get(t, "defense.erase") +
      get(t, "defense.write_pages") + get(t, "defense.page_write") +
      get(t, "defense.page_readback") + get(t, "defense.verify_image") +
      get(t, "defense.release");
  // The boot's parts; defense.boot_parts' own self time is the scratch
  // board and byte counting, which the real boot does not do.
  const double parts = get(t, "defense.flash_read") +
                       get(t, "defense.parse_container") +
                       get(t, "defense.randomize") + program_ms +
                       get(t, "detect.rebuild");
  const double retried = get(c, "defense.page_retries");
  const double page_attempts = get(c, "defense.page_attempts");
  const double retired = get(c, "avr.retired");

  std::vector<Metric> m = {
      {"avr.run_ms", avr_run_ms, "ms"},
      {"avr.mips",
       avr_run_ms > 0 ? get(c, "avr.run_retired") / avr_run_ms / 1e3 : 0,
       "MIPS"},
      {"avr.retired", retired, "count"},
      {"avr.tier.blocks_translated", get(c, "avr.tier.blocks_translated"),
       "count"},
      {"avr.tier.side_exits", get(c, "avr.tier.side_exits"), "count"},
      {"avr.tier.interp_steps", get(c, "avr.tier.interp_steps"), "count"},
      {"avr.tier.invalidations", get(c, "avr.tier.invalidations"), "count"},
      {"avr.tier.fused_pairs", get(c, "avr.tier.fused_pairs"), "count"},
      {"avr.tier.coverage",
       retired > 0 ? get(c, "avr.tier.block_instructions") / retired : 0,
       "ratio"},
      {"detect.run_ms", detect_run_ms, "ms"},
      {"detect.mcycles_per_s",
       detect_run_ms > 0 ? get(c, "detect.run_cycles") / detect_run_ms / 1e3
                         : 0,
       "Mcycles/s"},
      {"detect.rebuild_ms", get(t, "detect.rebuild"), "ms"},
      {"detect.trips", get(c, "detect.trips"), "count"},
      {"detect.ttd_cycles", get(c, "detect.ttd_cycles"), "cycles"},
      {"defense.upload_ms", get(t, "defense.upload"), "ms"},
      {"defense.boot_ms", get(t, "defense.boot"), "ms"},
      {"defense.reboot_ms", get(t, "defense.reboot"), "ms"},
      {"defense.flash_read_ms", get(t, "defense.flash_read"), "ms"},
      {"defense.parse_container_ms", get(t, "defense.parse_container"), "ms"},
      {"defense.randomize_ms", get(t, "defense.randomize"), "ms"},
      {"defense.program_ms", program_ms, "ms"},
      {"defense.erase_ms", get(t, "defense.erase"), "ms"},
      {"defense.write_pages_ms",
       get(t, "defense.write_pages") + get(t, "defense.page_write") +
           get(t, "defense.page_readback"),
       "ms"},
      {"defense.page_write_ms", get(t, "defense.page_write"), "ms"},
      {"defense.page_readback_ms", get(t, "defense.page_readback"), "ms"},
      {"defense.verify_image_ms", get(t, "defense.verify_image"), "ms"},
      {"defense.release_ms", get(t, "defense.release"), "ms"},
      {"defense.boot_unaccounted_ms", get(t, "defense.boot") - parts, "ms"},
      {"defense.service_ms", get(t, "defense.service"), "ms"},
      {"defense.pages_programmed", get(c, "defense.pages_programmed"),
       "count"},
      {"defense.page_retries", retried, "count"},
      {"defense.image_retries", get(c, "defense.image_retries"), "count"},
      {"defense.container_crc_failures",
       get(c, "defense.container_crc_failures"), "count"},
      {"defense.fallbacks", get(c, "defense.fallbacks"), "count"},
      {"defense.bytes_patched", get(c, "defense.bytes_patched"), "count"},
      {"defense.retry_share", page_attempts > 0 ? retried / page_attempts : 0,
       "ratio"},
      {"sim.payload_send_ms", get(t, "sim.payload_send"), "ms"},
      {"firmware.generate_ms", get(setup, "firmware.generate"), "ms"},
      {"attack.plan_ms", get(setup, "attack.plan"), "ms"},
      {"defense.preprocess_ms", get(setup, "defense.preprocess"), "ms"},
      {"analysis.analyze_ms", get(setup, "analysis.analyze"), "ms"},
      {"campaign.trial_ms_p50", percentile(trial_ms, 0.50), "ms"},
      {"campaign.trial_ms_p95", percentile(trial_ms, 0.95), "ms"},
      {"campaign.chunk_ms", chunk_ms, "ms"},
      {"campaign.idle_share", idle_share, "ratio"},
      {"campaignd.overhead_ms_per_chunk", overhead_ms_per_chunk, "ms"},
      {"campaignd.chunks_assigned", chunks_assigned, "count"},
      {"campaignd.duplicate_results", duplicate_results, "count"},
      {"trace.trials_per_s", static_cast<double>(w.sample) / rep.traced_s,
       "1/s"},
      {"trace.untraced_trials_per_s",
       static_cast<double>(w.sample) / rep.untraced_s, "1/s"},
      {"trace.overhead", rep.traced_s / rep.untraced_s, "ratio"},
  };
  print_result(correct, attempted, failed, m);
  return 0;
}

// --- Self-checks ------------------------------------------------------------

/// Two traced replays of every workload must give exactly equal counters.
int check_determinism() {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    const CampaignConfig config = make_config(w, kRecordedSeeds[0]);
    Workload small = w;
    small.sample = std::min<std::uint64_t>(w.sample, 8);
    const campaign::SimFixture fx = campaign::make_sim_fixture(profile_of(w));
    Replay r1;
    Replay r2;
    const ReplayOutcome a = replay_sample(small, config, fx, fx, r1);
    const ReplayOutcome b = replay_sample(small, config, fx, fx, r2);
    bool same = a.counters.size() == b.counters.size() && a.mismatches == 0 &&
                b.mismatches == 0 && a.drift.empty() && b.drift.empty();
    for (const auto& [name, v] : a.counters) {
      const auto it = b.counters.find(name);
      if (it == b.counters.end() || std::bit_cast<std::uint64_t>(it->second) !=
                                        std::bit_cast<std::uint64_t>(v)) {
        std::printf("  %s: %s differs\n", w.name, name.c_str());
        same = false;
      }
    }
    std::printf("%-20s %zu counters, %s\n", w.name, a.counters.size(),
                same ? "identical" : "DIFFER");
    ok = ok && same;
  }
  return ok ? 0 : 1;
}

/// Prints expected.hpp rows for every workload, recorded seed and
/// campaign of a run.
int record() {
  for (const Workload& w : kWorkloads) {
    const campaign::SimFixture fx = campaign::make_sim_fixture(profile_of(w));
    for (std::uint64_t seed : kRecordedSeeds) {
      for (std::uint64_t k = 0; k < kCampaignsPerRun; ++k) {
        const CampaignStats s =
            campaign::run_campaign(make_config(w, seed, k), fx);
        std::printf("    {\"%s\", %llu, %llu,\n     {", w.name,
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(k));
        const auto words = stats_words(s);
        for (std::size_t i = 0; i < words.size(); ++i) {
          std::printf("%s0x%016llxULL", i == 0 ? "" : i % 3 == 0 ? ",\n      " : ", ",
                      static_cast<unsigned long long>(words[i]));
        }
        std::printf("}},\n");
      }
    }
  }
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\n"
               "usage: campaign_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       campaign_bench --record | --check-determinism\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  using namespace campaignbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--record") return record();
    if (arg == "--check-determinism") return check_determinism();
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = find_workload(v);
      if (a.workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      const auto s = mavr::support::parse_u64(v);
      if (!s) usage("invalid value for --seed");
      a.seed = *s;
    } else if (arg == "--seconds") {
      const auto s = mavr::support::parse_u64_in(v, 1, 600);
      if (!s) usage("invalid value for --seconds");
      a.seconds = static_cast<double>(*s);
    } else if (arg == "--trace") {
      const auto s = mavr::support::parse_u64_in(v, 0, 1);
      if (!s) usage("invalid value for --trace");
      a.trace = *s == 1;
    } else if (arg == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  try {
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_bench: %s\n", e.what());
    return 1;
  }
}
