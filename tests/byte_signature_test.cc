#include "index/byte_signature.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace imgrn {
namespace {

TEST(ByteSignatureTest, LayoutByteCount) {
  EXPECT_EQ((ByteSignatureLayout{128, 2}).num_bytes(), 16u);
  EXPECT_EQ((ByteSignatureLayout{100, 2}).num_bytes(), 13u);
  EXPECT_EQ((ByteSignatureLayout{8, 1}).num_bytes(), 1u);
}

TEST(ByteSignatureTest, AddThenMayContain) {
  ByteSignatureLayout layout{128, 2};
  std::vector<uint8_t> sig(layout.num_bytes(), 0);
  for (uint64_t id = 0; id < 10; ++id) {
    ByteSignatureAdd(layout, id, sig);
  }
  for (uint64_t id = 0; id < 10; ++id) {
    EXPECT_TRUE(ByteSignatureMayContain(layout, id, sig));
  }
}

TEST(ByteSignatureTest, EmptySignatureContainsNothing) {
  ByteSignatureLayout layout{256, 3};
  std::vector<uint8_t> sig(layout.num_bytes(), 0);
  for (uint64_t id = 0; id < 50; ++id) {
    EXPECT_FALSE(ByteSignatureMayContain(layout, id, sig));
  }
}

TEST(ByteSignatureTest, FalsePositiveRateReasonable) {
  ByteSignatureLayout layout{1024, 2};
  std::vector<uint8_t> sig(layout.num_bytes(), 0);
  for (uint64_t id = 0; id < 30; ++id) {
    ByteSignatureAdd(layout, id, sig);
  }
  int false_positives = 0;
  for (uint64_t id = 10000; id < 11000; ++id) {
    if (ByteSignatureMayContain(layout, id, sig)) ++false_positives;
  }
  EXPECT_LT(false_positives, 60);
}

TEST(ByteSignatureTest, IntersectDetectsCommonBits) {
  ByteSignatureLayout layout{512, 2};
  std::vector<uint8_t> a(layout.num_bytes(), 0);
  std::vector<uint8_t> b(layout.num_bytes(), 0);
  ByteSignatureAdd(layout, 1, a);
  ByteSignatureAdd(layout, 2, b);
  EXPECT_FALSE(ByteSignaturesIntersect(a, b));
  ByteSignatureAdd(layout, 1, b);
  EXPECT_TRUE(ByteSignaturesIntersect(a, b));
}

TEST(ByteSignatureTest, MergeIsBitwiseOr) {
  ByteSignatureLayout layout{128, 2};
  std::vector<uint8_t> a(layout.num_bytes(), 0);
  std::vector<uint8_t> b(layout.num_bytes(), 0);
  ByteSignatureAdd(layout, 5, a);
  ByteSignatureAdd(layout, 9, b);
  ByteSignatureMerge(a.data(), b.data(), layout.num_bytes());
  EXPECT_TRUE(ByteSignatureMayContain(layout, 5, a));
  EXPECT_TRUE(ByteSignatureMayContain(layout, 9, a));
}

TEST(ByteSignatureTest, MergeWithZeroIsIdentity) {
  ByteSignatureLayout layout{128, 2};
  std::vector<uint8_t> a(layout.num_bytes(), 0);
  ByteSignatureAdd(layout, 7, a);
  std::vector<uint8_t> snapshot = a;
  std::vector<uint8_t> zero(layout.num_bytes(), 0);
  ByteSignatureMerge(a.data(), zero.data(), layout.num_bytes());
  EXPECT_EQ(a, snapshot);
}

TEST(ByteSignatureTest, MergeCommutativeAndAssociative) {
  ByteSignatureLayout layout{64, 2};
  Rng rng(1);
  std::vector<uint8_t> a(8), b(8), c(8);
  for (size_t i = 0; i < 8; ++i) {
    a[i] = static_cast<uint8_t>(rng.NextUint64());
    b[i] = static_cast<uint8_t>(rng.NextUint64());
    c[i] = static_cast<uint8_t>(rng.NextUint64());
  }
  std::vector<uint8_t> ab = a;
  ByteSignatureMerge(ab.data(), b.data(), 8);
  std::vector<uint8_t> ba = b;
  ByteSignatureMerge(ba.data(), a.data(), 8);
  EXPECT_EQ(ab, ba);
  std::vector<uint8_t> ab_c = ab;
  ByteSignatureMerge(ab_c.data(), c.data(), 8);
  std::vector<uint8_t> bc = b;
  ByteSignatureMerge(bc.data(), c.data(), 8);
  std::vector<uint8_t> a_bc = a;
  ByteSignatureMerge(a_bc.data(), bc.data(), 8);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(ByteSignatureTest, MergedSignaturePreservesMembership) {
  // The monoid property the R*-tree relies on: merging child signatures
  // preserves every child member (no false negatives up the tree).
  ByteSignatureLayout layout{256, 2};
  Rng rng(2);
  std::vector<std::vector<uint8_t>> children;
  std::vector<uint64_t> ids;
  std::vector<uint8_t> parent(layout.num_bytes(), 0);
  for (int child = 0; child < 10; ++child) {
    std::vector<uint8_t> sig(layout.num_bytes(), 0);
    const uint64_t id = rng.NextUint64();
    ByteSignatureAdd(layout, id, sig);
    ids.push_back(id);
    ByteSignatureMerge(parent.data(), sig.data(), layout.num_bytes());
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(ByteSignatureMayContain(layout, id, parent));
  }
}

TEST(ByteSignatureDeathTest, SizeMismatchAborts) {
  ByteSignatureLayout layout{128, 2};
  std::vector<uint8_t> wrong(3, 0);
  EXPECT_DEATH(ByteSignatureAdd(layout, 1, wrong), "Check failed");
}

TEST(MixHashTest, DeterministicAndSpread) {
  EXPECT_EQ(MixHash64(42), MixHash64(42));
  EXPECT_NE(MixHash64(42), MixHash64(43));
  EXPECT_NE(MixHash64(42), MixHash64Alt(42));
}

}  // namespace
}  // namespace imgrn
