// Campaign scaling: trials/sec by worker count, first on the in-process
// thread pool (jobs 1/2/4/8) and then through the coordinator/worker
// service, plus the determinism checks — the in-process aggregate must be
// bit-identical at every jobs count, and the service aggregate
// bit-identical to it at every worker count (DESIGN.md §12–§13).
//
// Workload: the re-randomized brute-force model at n=6 — each trial runs
// a geometric series of unbiased Rng draws (E[draws] = 720), so the work
// is CPU-bound and embarrassingly parallel. Speedup is bounded by the
// physical cores of the machine running the bench; the determinism checks
// hold everywhere. The in-process and service tables share the workload,
// so their delta is the protocol + scheduling overhead of sharding
// 64-trial chunks over a stream socket.
//
// The service sweep runs on both transports: AF_UNIX (the single-machine
// default) and TCP loopback (the multi-machine path — loopback puts a
// floor under its protocol cost; real networks only add latency, which
// cannot affect the bits). The bit-exactness gate applies to every cell:
// any mismatch exits nonzero.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "campaign/scenarios.hpp"
#include "campaignd/client.hpp"
#include "campaignd/coordinator.hpp"
#include "campaignd/worker.hpp"

namespace {

/// Determinism means *equality*, not closeness: CampaignStats is all
/// 8-byte fields, so a bytewise compare checks every bit.
bool same_bits(const mavr::campaign::CampaignStats& a,
               const mavr::campaign::CampaignStats& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// The in-process thread pool at jobs 1/2/4/8. Leaves the jobs=1
/// aggregate in `*reference`; returns false on a bit-exactness violation.
bool in_process_sweep(mavr::campaign::CampaignConfig config,
                      mavr::campaign::CampaignStats* reference) {
  using namespace mavr;
  std::printf("-- in-process thread pool --\n");
  std::printf("%-8s %-12s %-14s %-10s %-12s\n", "jobs", "wall (s)",
              "trials/sec", "speedup", "stats match");
  double base_s = 0;
  for (unsigned jobs : {1u, 2u, 4u, 8u}) {
    config.jobs = jobs;
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignStats stats = campaign::run_campaign(config);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (jobs == 1) {
      base_s = wall_s;
      *reference = stats;
    }
    const bool identical = same_bits(stats, *reference);
    std::printf("%-8u %-12.3f %-14.0f %-10.2f %-12s\n", jobs, wall_s,
                static_cast<double>(config.trials) / wall_s,
                base_s / wall_s, identical ? "bit-exact" : "MISMATCH (!)");
    if (!identical) return false;
  }
  std::printf("\n");
  return true;
}

/// One worker-count sweep over `listen_endpoint`. Returns false on any
/// service failure or bit-exactness violation.
bool sweep(const char* label, const std::string& listen_endpoint,
           const mavr::campaign::CampaignConfig& config,
           const mavr::campaign::CampaignStats& reference) {
  using namespace mavr;
  std::printf("-- %s --\n", label);
  std::printf("%-8s %-12s %-14s %-10s %-12s\n", "workers", "wall (s)",
              "trials/sec", "speedup", "stats match");

  double base_s = 0;
  for (int workers : {1, 2, 4, 8}) {
    campaignd::CoordinatorConfig cc;
    cc.listen_endpoint = listen_endpoint;
    cc.wait_hint_ms = 2;
    campaignd::Coordinator coordinator(cc);
    coordinator.start();
    // The *bound* endpoint: with tcp:...:0 this carries the real port.
    const std::string endpoint = coordinator.endpoint();

    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int i = 0; i < workers; ++i) {
      pool.emplace_back([&endpoint, &stop] {
        campaignd::WorkerOptions options;
        options.connect_attempts = 20;
        options.backoff_ms = 5;
        options.stop = &stop;
        campaignd::run_worker(endpoint, options);
      });
    }

    const auto t0 = std::chrono::steady_clock::now();
    const campaignd::SubmitOutcome submit =
        campaignd::submit_campaign(endpoint, config);
    if (!submit.ok) {
      std::printf("submit failed: %s\n", submit.error.c_str());
      return false;
    }
    const campaignd::PollOutcome done = campaignd::wait_campaign(
        endpoint, submit.campaign_id, /*interval_ms=*/5);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    for (std::thread& t : pool) t.join();
    coordinator.stop();
    if (!done.ok) {
      std::printf("wait failed: %s\n", done.error.c_str());
      return false;
    }
    if (workers == 1) base_s = wall_s;

    const bool identical = same_bits(done.status.stats, reference);
    std::printf("%-8d %-12.3f %-14.0f %-10.2f %-12s\n", workers, wall_s,
                static_cast<double>(config.trials) / wall_s,
                base_s / wall_s, identical ? "bit-exact" : "MISMATCH (!)");
    if (!identical) return false;
  }
  std::printf("\n");
  return true;
}

}  // namespace

int main() {
  using namespace mavr;
  bench::heading("Campaign scaling (trials/sec by worker count)");

  campaign::CampaignConfig config;
  config.scenario = campaign::Scenario::kBruteForceRerand;
  config.n_functions = 6;
  config.trials = 20'000;
  config.seed = 0xCA4;

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("workload: %llu trials of %s (n=%u), hardware threads: %u\n\n",
              static_cast<unsigned long long>(config.trials),
              campaign::scenario_name(config.scenario), config.n_functions,
              hw);

  campaign::CampaignStats reference;
  if (!in_process_sweep(config, &reference)) return 1;
  config.jobs = 1;
  if (!sweep("AF_UNIX", "unix:/tmp/mavr_campaignd_bench.sock", config,
             reference)) {
    return 1;
  }
  if (!sweep("TCP loopback", "tcp:127.0.0.1:0", config, reference)) {
    return 1;
  }

  std::printf("speedup ceiling is min(jobs, physical cores). Every jobs "
              "count, transport and\nworker count reproduces the same "
              "aggregate bit-for-bit: chunks are\ndeterministic functions "
              "of (config, index), merged in index order wherever\nthey "
              "were computed.\n");
  return 0;
}
