#include "common/coding.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace rottnest {
namespace {

TEST(CodingTest, Fixed32RoundTrip) {
  Buffer buf;
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 1);
  PutFixed32(&buf, 0xdeadbeef);
  PutFixed32(&buf, UINT32_MAX);
  Decoder dec{Slice(buf)};
  uint32_t v;
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 1u);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(dec.GetFixed32(&v).ok());
  EXPECT_EQ(v, UINT32_MAX);
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodingTest, Fixed64RoundTrip) {
  Buffer buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Decoder dec{Slice(buf)};
  uint64_t v;
  ASSERT_TRUE(dec.GetFixed64(&v).ok());
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(CodingTest, VarintBoundaries) {
  // Boundary values at each 7-bit threshold.
  std::vector<uint64_t> values;
  for (int shift = 0; shift < 64; shift += 7) {
    values.push_back(1ULL << shift);
    values.push_back((1ULL << shift) - 1);
  }
  values.push_back(UINT64_MAX);
  values.push_back(0);

  Buffer buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Decoder dec{Slice(buf)};
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.GetVarint64(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodingTest, VarintRandomRoundTrip) {
  Random rng(1234);
  Buffer buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 1000; ++i) {
    // Mix of magnitudes.
    uint64_t v = rng.Next() >> rng.Uniform(64);
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Decoder dec{Slice(buf)};
  for (uint64_t expected : values) {
    uint64_t v = 0;
    ASSERT_TRUE(dec.GetVarint64(&v).ok());
    EXPECT_EQ(v, expected);
  }
}

TEST(CodingTest, ZigZag) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(INT64_MIN)), INT64_MIN);
  EXPECT_EQ(ZigZagDecode(ZigZagEncode(INT64_MAX)), INT64_MAX);
  for (int64_t v : {-1000000007LL, -42LL, 0LL, 7LL, 123456789012345LL}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(CodingTest, SignedVarint) {
  Buffer buf;
  PutVarint64Signed(&buf, -12345);
  PutVarint64Signed(&buf, 67890);
  Decoder dec{Slice(buf)};
  int64_t v;
  ASSERT_TRUE(dec.GetVarint64Signed(&v).ok());
  EXPECT_EQ(v, -12345);
  ASSERT_TRUE(dec.GetVarint64Signed(&v).ok());
  EXPECT_EQ(v, 67890);
}

TEST(CodingTest, TruncatedInputsFailCleanly) {
  Buffer buf;
  PutFixed64(&buf, 42);
  // Chop to 3 bytes: every accessor must fail (without advancing), not crash.
  Decoder dec(Slice(buf.data(), 3));
  uint64_t v64;
  uint32_t v32;
  EXPECT_TRUE(dec.GetFixed64(&v64).IsCorruption());
  EXPECT_TRUE(dec.GetFixed32(&v32).IsCorruption());
  EXPECT_EQ(dec.position(), 0u);
}

TEST(CodingTest, TruncatedFixed32Fails) {
  Buffer buf = {1, 2, 3};
  Decoder dec{Slice(buf)};
  uint32_t v;
  EXPECT_TRUE(dec.GetFixed32(&v).IsCorruption());
}

TEST(CodingTest, TruncatedVarintFails) {
  Buffer buf = {0x80, 0x80};  // Continuation bits with no terminator.
  Decoder dec{Slice(buf)};
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(CodingTest, OverlongVarintFails) {
  Buffer buf(11, 0x80);  // 11 continuation bytes > max 10.
  Decoder dec{Slice(buf)};
  uint64_t v;
  EXPECT_TRUE(dec.GetVarint64(&v).IsCorruption());
}

TEST(CodingTest, LengthPrefixed) {
  Buffer buf;
  PutLengthPrefixedString(&buf, "hello");
  PutLengthPrefixedString(&buf, "");
  PutLengthPrefixedString(&buf, std::string(300, 'x'));
  Decoder dec{Slice(buf)};
  std::string s;
  ASSERT_TRUE(dec.GetLengthPrefixedString(&s).ok());
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(dec.GetLengthPrefixedString(&s).ok());
  EXPECT_EQ(s, "");
  ASSERT_TRUE(dec.GetLengthPrefixedString(&s).ok());
  EXPECT_EQ(s, std::string(300, 'x'));
  EXPECT_TRUE(dec.exhausted());
}

TEST(CodingTest, LengthPrefixedTruncatedBody) {
  Buffer buf;
  PutVarint64(&buf, 100);  // Claims 100 bytes...
  buf.push_back('a');      // ...delivers 1.
  Decoder dec{Slice(buf)};
  Slice s;
  EXPECT_TRUE(dec.GetLengthPrefixed(&s).IsCorruption());
}

}  // namespace
}  // namespace rottnest
