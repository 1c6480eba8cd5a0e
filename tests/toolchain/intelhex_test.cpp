// Intel HEX codec: round trips, 64 KiB boundary handling (256 KiB images
// need extended-linear records), gap filling, malformed-input paths, the
// decode bound and byte stability of the encoder.
#include <gtest/gtest.h>

#include "defense/external_flash.hpp"
#include "defense/master.hpp"
#include "defense/preprocess.hpp"
#include "firmware/generator.hpp"
#include "firmware/profile.hpp"
#include "sim/board.hpp"
#include "support/crc.hpp"
#include "support/rng.hpp"
#include "toolchain/intelhex.hpp"

namespace mavr::toolchain {
namespace {

TEST(IntelHex, SmallRoundTrip) {
  const support::Bytes data = {0x01, 0x02, 0x03, 0xFF, 0x00, 0xAB};
  const HexImage decoded = intel_hex_decode(intel_hex_encode(data));
  EXPECT_EQ(decoded.data, data);
  EXPECT_EQ(decoded.base, 0u);
}

TEST(IntelHex, LargeImageCrossing64kBoundaries) {
  support::Rng rng(42);
  support::Bytes data(200'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::string hex = intel_hex_encode(data);
  // Needs type-04 records for banks 1 and 2.
  EXPECT_NE(hex.find(":02000004000"), std::string::npos);
  const HexImage decoded = intel_hex_decode(hex);
  EXPECT_EQ(decoded.data, data);
}

TEST(IntelHex, NonZeroBase) {
  const support::Bytes data = {0xDE, 0xAD};
  const HexImage decoded =
      intel_hex_decode(intel_hex_encode(data, 0x10000));
  EXPECT_EQ(decoded.base, 0x10000u);
  EXPECT_EQ(decoded.data, data);
}

TEST(IntelHex, RecordLengthRespected) {
  const support::Bytes data(64, 0x55);
  const std::string hex = intel_hex_encode(data, 0, 8);
  // 8 data records of 8 bytes + EOF.
  std::size_t records = 0;
  for (char c : hex) {
    if (c == ':') ++records;
  }
  EXPECT_EQ(records, 9u);
  EXPECT_EQ(intel_hex_decode(hex).data, data);
}

TEST(IntelHex, ChecksumVerified) {
  std::string hex = intel_hex_encode({0x11, 0x22});
  // Corrupt one data digit (not the colon, length or EOF line).
  const std::size_t pos = hex.find("1122");
  ASSERT_NE(pos, std::string::npos);
  hex[pos] = '3';
  EXPECT_THROW(intel_hex_decode(hex), support::DataError);
}

TEST(IntelHex, MalformedInputs) {
  EXPECT_THROW(intel_hex_decode("garbage"), support::DataError);
  EXPECT_THROW(intel_hex_decode(":zz"), support::DataError);
  EXPECT_THROW(intel_hex_decode(":0100000001"), support::DataError);
  // Missing EOF record.
  EXPECT_THROW(intel_hex_decode(":0100000055AA\n"), support::DataError);
}

TEST(IntelHex, ToleratesWhitespaceAndCrLf) {
  std::string hex = intel_hex_encode({0xAA, 0xBB});
  std::string crlf;
  for (char c : hex) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  EXPECT_EQ(intel_hex_decode(crlf).data, support::Bytes({0xAA, 0xBB}));
}

TEST(IntelHex, StartAddressRecordsIgnored) {
  // Type 05 (start linear address) is informational.
  const std::string hex =
      ":0400000512345678E3\n:02000000AABB99\n:00000001FF\n";
  EXPECT_EQ(intel_hex_decode(hex).data, support::Bytes({0xAA, 0xBB}));
}

TEST(IntelHex, RandomRecordLengthsAndBasesRoundTrip) {
  support::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t record_len = 1 + rng.below(255);
    // Half the bases sit just below a 64 KiB bank boundary, so the image
    // needs a type-04 record part way through.
    const std::uint32_t base =
        trial % 2 == 0
            ? static_cast<std::uint32_t>(1 + rng.below(0x40000))
            : static_cast<std::uint32_t>(0x10000 * (1 + rng.below(3)) -
                                         1 - rng.below(600));
    support::Bytes data(1 + rng.below(1200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    const HexImage decoded =
        intel_hex_decode(intel_hex_encode(data, base, record_len));
    EXPECT_EQ(decoded.base, base) << "trial " << trial;
    EXPECT_EQ(decoded.data, data) << "trial " << trial;
  }
}

TEST(IntelHex, EveryTruncationOfAMultiBankFileIsRejected) {
  support::Rng rng(5);
  support::Bytes data(600);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  // Starts in bank 0 and crosses into bank 1, so the file carries a type-04
  // record between data records.
  const std::string hex = intel_hex_encode(data, 0xFF00, 32);
  ASSERT_NE(hex.find(":020000040001F9"), std::string::npos);
  ASSERT_EQ(intel_hex_decode(hex).data, data);
  // Every cut before the last character of the EOF record.
  const std::size_t eof_end = hex.rfind(":00000001FF") + 11;
  for (std::size_t n = 0; n < eof_end; ++n) {
    EXPECT_THROW(intel_hex_decode(hex.substr(0, n)), support::DataError)
        << "prefix of " << n << " characters";
  }
  EXPECT_EQ(intel_hex_decode(hex.substr(0, eof_end)).data, data);
}

// 56 bytes of HEX whose second data record sits at 0x7FFF0000: decoded
// naively it gap-fills a 2 GiB image.
const std::string kWideHex =
    ":01000000AA55\n:020000047FFF7C\n:01000000BB44\n:00000001FF\n";

TEST(IntelHex, DecodedExtentIsBoundedBeforeAllocating) {
  try {
    intel_hex_decode(kWideHex);
    ADD_FAILURE() << "a 2 GiB extent was accepted";
  } catch (const HexExtentError& e) {
    EXPECT_EQ(e.extent(), 0x7FFF0001u);
  }
  // An FFFF bank asks for 4 GiB.
  EXPECT_THROW(intel_hex_decode(":01000000AA55\n:02000004FFFFFC\n"
                                ":01000000BB44\n:00000001FF\n"),
               support::DataError);
  // The bound is inclusive and measured from the image base.
  const support::Bytes data(100, 0x42);
  const std::string hex = intel_hex_encode(data, 0x20000);
  EXPECT_EQ(intel_hex_decode(hex, 100).data, data);
  EXPECT_THROW(intel_hex_decode(hex, 99), HexExtentError);
}

TEST(IntelHex, HostUploadRejectsWideHexAtChipCapacity) {
  defense::ExternalFlash flash;
  sim::Board board;
  defense::MasterProcessor master(flash, board, defense::MasterConfig{});
  EXPECT_THROW(master.host_upload_hex(kWideHex), support::PreconditionError);
  EXPECT_TRUE(flash.empty());
  // One byte past the chip is refused the same way; a full chip is not.
  EXPECT_THROW(master.host_upload_hex(intel_hex_encode(
                   support::Bytes(flash.capacity() + 1, 0x11))),
               support::PreconditionError);
  master.host_upload_hex(
      intel_hex_encode(support::Bytes(flash.capacity(), 0x11)));
  EXPECT_EQ(flash.used(), flash.capacity());
}

TEST(IntelHex, PreprocessedContainersAreByteStable) {
  // Length and CRC-32 recorded from an independent snprintf-based encoder:
  // any byte change in the uploaded container HEX shows here.
  const auto hex_crc = [](const firmware::AppProfile& profile) {
    const std::string hex = defense::preprocess_to_hex(
        firmware::generate(profile, ToolchainOptions::mavr()).image);
    return std::pair{hex.size(),
                     support::crc32_ieee(std::span(
                         reinterpret_cast<const std::uint8_t*>(hex.data()),
                         hex.size()))};
  };
  EXPECT_EQ(hex_crc(firmware::testapp(false)),
            (std::pair<std::size_t, std::uint32_t>{23528, 0x01D205E9}));
  EXPECT_EQ(hex_crc(firmware::arduplane(true)),
            (std::pair<std::size_t, std::uint32_t>{629612, 0x525CCA95}));
}

}  // namespace
}  // namespace mavr::toolchain
