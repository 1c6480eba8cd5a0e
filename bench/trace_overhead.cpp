// Tracer overhead on the interpreter hot loop: the same firmware run
// untraced (the single null-pointer branch), under each concrete sink, and
// under the full Session. BM_Untraced is the baseline every traced case is
// read against — that is the zero-cost-when-disabled contract of the
// observability layer. Detector cost is bench/detect_overhead's.
#include <benchmark/benchmark.h>

#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "trace/session.hpp"

namespace {

using namespace mavr;

const firmware::Firmware& test_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::testapp(true), toolchain::ToolchainOptions::mavr());
  return fw;
}

void run_slice(benchmark::State& state, sim::Board& board) {
  board.run_cycles(100'000);
  if (board.cpu().state() != avr::CpuState::Running) {
    state.SkipWithError("board died");
  }
}

void sim_rate(benchmark::State& state) {
  state.counters["sim_MHz"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 100'000,
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void BM_Untraced(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);  // boot
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Untraced)->Unit(benchmark::kMicrosecond);

void BM_NullTracer(benchmark::State& state) {
  // An attached tracer whose hooks are all the empty defaults: measures the
  // cost of the instrumented interpreter instantiation itself.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  avr::Tracer null_tracer;
  board.cpu().set_tracer(&null_tracer);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_NullTracer)->Unit(benchmark::kMicrosecond);

void BM_RingTraceFlow(benchmark::State& state) {
  // Control-flow events only (default mask) into the bounded ring.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::ExecutionTrace trace;
  board.cpu().set_tracer(&trace);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_RingTraceFlow)->Unit(benchmark::kMicrosecond);

void BM_RingTraceAll(benchmark::State& state) {
  // Full firehose: every retire/load/store recorded.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::ExecutionTrace trace(std::size_t{1} << 16, trace::kAllEvents);
  board.cpu().set_tracer(&trace);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_RingTraceAll)->Unit(benchmark::kMicrosecond);

void BM_Profiler(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Profiler profiler(test_fw().image);
  board.cpu().set_tracer(&profiler);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Profiler)->Unit(benchmark::kMicrosecond);

void BM_Watchpoints(benchmark::State& state) {
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Watchpoints watch;
  watch.watch_sp(0x2100, 0x21FF, trace::SpWatchMode::Outside, "stack");
  board.cpu().set_tracer(&watch);
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_Watchpoints)->Unit(benchmark::kMicrosecond);

void BM_FullSession(benchmark::State& state) {
  // Everything at once, plus the UART tap: the mavr-trace configuration.
  sim::Board board;
  board.flash_image(test_fw().image.bytes);
  board.run_cycles(200'000);
  trace::Session session(test_fw().image);
  session.watchpoints().watch_sp(0x2100, 0x21FF,
                                 trace::SpWatchMode::Outside, "stack");
  session.attach(board.cpu(), &board.telemetry());
  for (auto _ : state) run_slice(state, board);
  sim_rate(state);
}
BENCHMARK(BM_FullSession)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
