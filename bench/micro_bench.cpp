// google-benchmark microbenchmarks for the hot paths of the reproduction:
// the master's randomize+patch pass (determines how much CPU headroom the
// ATmega1284P model needs), the attacker's gadget scan, the MAVLink codec,
// the CRCs, and each layer of the host upload/verify path (Intel HEX
// codec, whole-image bootloader readback). Simulator speed is
// bench/interp_throughput's (and trace_overhead's BM_Untraced).
#include <benchmark/benchmark.h>

#include "attack/gadgets.hpp"
#include "defense/patcher.hpp"
#include "defense/preprocess.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "mavlink/mavlink.hpp"
#include "sim/board.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"
#include "toolchain/image.hpp"
#include "toolchain/intelhex.hpp"

namespace {

using namespace mavr;

const firmware::Firmware& arduplane_fw() {
  static firmware::Firmware fw = firmware::generate(
      firmware::arduplane(true), toolchain::ToolchainOptions::mavr());
  return fw;
}

void BM_RandomizeAndPatch(benchmark::State& state) {
  const toolchain::Image& image = arduplane_fw().image;
  const toolchain::SymbolBlob blob = toolchain::SymbolBlob::from_image(image);
  support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        defense::randomize_image(image.bytes, blob, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          image.size_bytes());
}
BENCHMARK(BM_RandomizeAndPatch)->Unit(benchmark::kMillisecond);

void BM_GadgetScan(benchmark::State& state) {
  const toolchain::Image& image = arduplane_fw().image;
  for (auto _ : state) {
    attack::GadgetFinder finder(image);
    benchmark::DoNotOptimize(finder.census());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          image.text_end);
}
BENCHMARK(BM_GadgetScan)->Unit(benchmark::kMillisecond);

void BM_FirmwareGeneration(benchmark::State& state) {
  const firmware::AppProfile profile = firmware::arduplane(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        firmware::generate(profile, toolchain::ToolchainOptions::mavr()));
  }
}
BENCHMARK(BM_FirmwareGeneration)->Unit(benchmark::kMillisecond);

void BM_MavlinkEncode(benchmark::State& state) {
  mavlink::Attitude att;
  att.roll = 0.12f;
  std::uint8_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mavlink::encode(att.to_packet(1, seq++)));
  }
}
BENCHMARK(BM_MavlinkEncode);

void BM_MavlinkParse(benchmark::State& state) {
  mavlink::Attitude att;
  const support::Bytes bytes = mavlink::encode(att.to_packet(1, 9));
  mavlink::Parser parser;
  for (auto _ : state) {
    for (std::uint8_t b : bytes) benchmark::DoNotOptimize(parser.push(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_MavlinkParse);

void BM_Crc16(benchmark::State& state) {
  support::Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc16_x25(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc16);

void BM_Crc32(benchmark::State& state) {
  support::Bytes data(256 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::crc32_ieee(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

/// The preprocessed arduplane container as uploaded by the host.
const std::string& arduplane_hex() {
  static const std::string hex =
      defense::preprocess_to_hex(arduplane_fw().image);
  return hex;
}

void BM_IntelHexDecode(benchmark::State& state) {
  const std::string& hex = arduplane_hex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(toolchain::intel_hex_decode(hex));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hex.size()));
}
BENCHMARK(BM_IntelHexDecode)->Unit(benchmark::kMicrosecond);

void BM_IntelHexEncode(benchmark::State& state) {
  const support::Bytes container =
      defense::build_container(arduplane_fw().image);
  for (auto _ : state) {
    benchmark::DoNotOptimize(toolchain::intel_hex_encode(container));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(container.size()));
}
BENCHMARK(BM_IntelHexEncode)->Unit(benchmark::kMicrosecond);

void BM_BootloaderReadback(benchmark::State& state) {
  const toolchain::Image& image = arduplane_fw().image;
  sim::Board board;
  board.flash_image(image.bytes);
  board.bootloader_enter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        board.bootloader_read_page(0, image.size_bytes()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          image.size_bytes());
}
BENCHMARK(BM_BootloaderReadback)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
