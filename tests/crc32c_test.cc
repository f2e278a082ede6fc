// Tests for CRC32C: the RFC 3720 known answers, and the dispatched path
// (SSE4.2 where the CPU has it) against the portable table loop over every
// short length, a stride sweep past two pages, unaligned starts, and
// incremental splits.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"

namespace imgrn {
namespace {

// One 8 KiB index page, the unit every sealed read hashes.
constexpr size_t kPage = 8192;
constexpr size_t kMaxLength = 2 * kPage + 7;
constexpr size_t kMaxOffset = 7;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

uint32_t Portable(const void* data, size_t length) {
  return Crc32cExtendPortable(0, data, length);
}

// Checks both paths against one expected value.
void ExpectBoth(const std::vector<uint8_t>& bytes, uint32_t expected) {
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), expected);
  EXPECT_EQ(Portable(bytes.data(), bytes.size()), expected);
}

// Compares dispatched and portable on `source[0, length)` copied to start
// `offset` bytes into a buffer that ends exactly where the data does, so
// ASan sees any read past the end.
void ExpectPathsAgree(const std::vector<uint8_t>& source, size_t length,
                      size_t offset) {
  std::vector<uint8_t> buffer(offset + length);
  if (length > 0) std::memcpy(buffer.data() + offset, source.data(), length);
  const uint8_t* data = buffer.data() + offset;
  EXPECT_EQ(Crc32c(data, length), Portable(data, length))
      << "length " << length << " offset " << offset;
  // A non-zero running CRC exercises the pre/post inversion of both paths.
  EXPECT_EQ(Crc32cExtend(0xDEADBEEFu, data, length),
            Crc32cExtendPortable(0xDEADBEEFu, data, length))
      << "length " << length << " offset " << offset;
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 appendix B.4.
  ExpectBoth(std::vector<uint8_t>(32, 0x00), 0x8A9136AAu);
  ExpectBoth(std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  ExpectBoth(ascending, 0x46DD794Eu);
  ExpectBoth(descending, 0x113FDB5Cu);
}

TEST(Crc32cTest, CheckValue) {
  const std::string digits = "123456789";
  ExpectBoth(std::vector<uint8_t>(digits.begin(), digits.end()), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInputIsIdentity) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
  EXPECT_EQ(Crc32cExtendPortable(0x12345678u, nullptr, 0), 0x12345678u);
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryShortLength) {
  const std::vector<uint8_t> source = RandomBytes(64, /*seed=*/1);
  for (size_t length = 0; length <= 64; ++length) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      ExpectPathsAgree(source, length, offset);
    }
  }
}

TEST(Crc32cTest, DispatchedMatchesPortableUpToTwoPages) {
  const std::vector<uint8_t> source = RandomBytes(kMaxLength, /*seed=*/2);
  std::vector<size_t> lengths;
  for (size_t length = 65; length < kMaxLength; length += 61) {
    lengths.push_back(length);
  }
  for (size_t length : {kPage - 1, kPage, kPage + 1, 2 * kPage, kMaxLength}) {
    lengths.push_back(length);
  }
  for (size_t length : lengths) {
    for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
      ExpectPathsAgree(source, length, offset);
    }
  }
}

TEST(Crc32cTest, ExtendChainedAtEverySplitEqualsOneShot) {
  const std::vector<uint8_t> bytes = RandomBytes(100, /*seed=*/3);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32cExtend(0, bytes.data(), split);
    EXPECT_EQ(Crc32cExtend(head, bytes.data() + split, bytes.size() - split),
              whole)
        << "split " << split;
    const uint32_t portable_head =
        Crc32cExtendPortable(0, bytes.data(), split);
    EXPECT_EQ(Crc32cExtendPortable(portable_head, bytes.data() + split,
                                   bytes.size() - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32cTest, DispatchUsesHardwarePathWhenPresent) {
  // Otherwise the differential tests above compare the table loop with
  // itself.
#if defined(__x86_64__) && defined(__GNUC__)
  const bool sse42 = __builtin_cpu_supports("sse4.2");
#else
  const bool sse42 = false;
#endif
  EXPECT_STREQ(Crc32cBackendName(), sse42 ? "sse4.2" : "portable");
}

}  // namespace
}  // namespace imgrn
