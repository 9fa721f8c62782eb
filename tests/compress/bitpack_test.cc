#include "compress/bitpack.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace rottnest::compress {
namespace {

TEST(BitWidthTest, Values) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(3), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth((1ULL << 56) - 1), 56);
}

class BitPackWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPackWidthTest, RoundTrip) {
  int width = GetParam();
  Random rng(width);
  std::vector<uint64_t> values;
  uint64_t mask = width == 0 ? 0 : (width == 64 ? ~0ULL : (1ULL << width) - 1);
  for (int i = 0; i < 1000; ++i) values.push_back(rng.Next() & mask);
  Buffer buf;
  BitPack(values, width, &buf);
  std::vector<uint64_t> out;
  ASSERT_TRUE(BitUnpack(Slice(buf), width, values.size(), &out).ok());
  EXPECT_EQ(out, values);
  // Random access agrees with the sequential unpack at every index.
  for (size_t i = 0; i < values.size(); ++i) {
    uint64_t one = ~0ULL;
    ASSERT_TRUE(BitUnpackAt(Slice(buf), width, i, &one).ok());
    ASSERT_EQ(one, values[i]) << "index " << i;
  }
  if (width > 0) {
    uint64_t one = 0;
    EXPECT_TRUE(
        BitUnpackAt(Slice(buf), width, buf.size() * 8 / width, &one)
            .IsCorruption());
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackWidthTest,
                         ::testing::Values(0, 1, 2, 3, 5, 7, 8, 9, 13, 16, 24,
                                           31, 32, 33, 48, 56));

TEST(BitPackTest, PackedSizeIsMinimal) {
  std::vector<uint64_t> values(100, 5);  // 3 bits each.
  Buffer buf;
  BitPack(values, 3, &buf);
  EXPECT_EQ(buf.size(), (100 * 3 + 7) / 8);
}

TEST(BitPackTest, UnpackTooShortFails) {
  Buffer buf = {0xff};
  std::vector<uint64_t> out;
  EXPECT_TRUE(BitUnpack(Slice(buf), 8, 2, &out).IsCorruption());
}

TEST(BitPackTest, ZeroWidthProducesZeros) {
  Buffer buf;
  BitPack({0, 0, 0}, 0, &buf);
  EXPECT_TRUE(buf.empty());
  std::vector<uint64_t> out;
  ASSERT_TRUE(BitUnpack(Slice(buf), 0, 3, &out).ok());
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(DeltaTest, SortedRoundTrip) {
  std::vector<uint64_t> values = {0, 0, 1, 5, 5, 100, 1000000, 1000001};
  Buffer buf;
  DeltaEncodeSorted(values, &buf);
  Decoder dec{Slice(buf)};
  std::vector<uint64_t> out;
  ASSERT_TRUE(DeltaDecodeSorted(&dec, &out).ok());
  EXPECT_EQ(out, values);
  EXPECT_TRUE(dec.exhausted());
}

TEST(DeltaTest, EmptyRoundTrip) {
  Buffer buf;
  DeltaEncodeSorted({}, &buf);
  Decoder dec{Slice(buf)};
  std::vector<uint64_t> out;
  ASSERT_TRUE(DeltaDecodeSorted(&dec, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(DeltaTest, DenseSortedIsCompact) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.push_back(i);
  Buffer buf;
  DeltaEncodeSorted(values, &buf);
  // Deltas are all 1: one byte each plus the count varint.
  EXPECT_LE(buf.size(), 1002u);
}

TEST(DeltaTest, RandomSortedRoundTrip) {
  Random rng(77);
  std::vector<uint64_t> values;
  uint64_t v = 0;
  for (int i = 0; i < 10000; ++i) {
    v += rng.Uniform(1 << 20);
    values.push_back(v);
  }
  Buffer buf;
  DeltaEncodeSorted(values, &buf);
  Decoder dec{Slice(buf)};
  std::vector<uint64_t> out;
  ASSERT_TRUE(DeltaDecodeSorted(&dec, &out).ok());
  EXPECT_EQ(out, values);
}

TEST(DeltaTest, TruncatedFails) {
  std::vector<uint64_t> values = {1, 2, 3};
  Buffer buf;
  DeltaEncodeSorted(values, &buf);
  Decoder dec{Slice(buf.data(), buf.size() - 1)};
  std::vector<uint64_t> out;
  EXPECT_TRUE(DeltaDecodeSorted(&dec, &out).IsCorruption());
}

}  // namespace
}  // namespace rottnest::compress
