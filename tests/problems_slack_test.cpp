#include "problems/slack.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace saim::problems {
namespace {

TEST(SlackEncoding, ZeroBoundHasNoBits) {
  const auto enc = make_slack_encoding(0);
  EXPECT_EQ(enc.num_bits(), 0u);
  EXPECT_EQ(enc.max_value(), 0);
}

TEST(SlackEncoding, BoundOneIsSingleBit) {
  const auto enc = make_slack_encoding(1);
  ASSERT_EQ(enc.num_bits(), 1u);
  EXPECT_EQ(enc.coefficients[0], 1);
}

TEST(SlackEncoding, PaperBitCountFormula) {
  // Q = floor(log2(b) + 1) for several b values.
  for (const std::int64_t b : {1, 2, 3, 4, 7, 8, 42, 100, 1023, 1024}) {
    const auto enc = make_slack_encoding(b);
    const auto expected = static_cast<std::size_t>(
        std::floor(std::log2(static_cast<double>(b)) + 1.0));
    EXPECT_EQ(enc.num_bits(), expected) << "b=" << b;
  }
}

TEST(SlackEncoding, CoefficientsArePowersOfTwo) {
  const auto enc = make_slack_encoding(100);
  for (std::size_t q = 0; q < enc.num_bits(); ++q) {
    EXPECT_EQ(enc.coefficients[q], std::int64_t{1} << q);
  }
}

TEST(SlackEncoding, MaxValueCoversBound) {
  for (const std::int64_t b : {1, 5, 42, 100, 999, 4096}) {
    const auto enc = make_slack_encoding(b);
    EXPECT_GE(enc.max_value(), b) << "b=" << b;
    // And is the tight power-of-two bound 2^Q - 1.
    EXPECT_EQ(enc.max_value(),
              (std::int64_t{1} << enc.num_bits()) - 1);
  }
}

TEST(SlackEncoding, NegativeBoundThrows) {
  EXPECT_THROW(make_slack_encoding(-1), std::invalid_argument);
}

TEST(SlackEncoding, DecodeBitCountMismatchThrows) {
  const auto enc = make_slack_encoding(5);
  EXPECT_THROW((void)enc.decode({1}), std::invalid_argument);
}

TEST(SlackEncoding, EncodeClampsOutOfRange) {
  const auto enc = make_slack_encoding(10);  // max 15
  EXPECT_EQ(enc.decode(enc.encode(-5)), 0);
  EXPECT_EQ(enc.decode(enc.encode(100)), 15);
}

// Property sweep: encode/decode round-trips every representable value, and
// every value in [0, b] is representable (the paper's requirement for the
// inequality-to-equality transformation to be exact).
class SlackRoundTrip : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SlackRoundTrip, EveryValueRepresentable) {
  const std::int64_t bound = GetParam();
  const auto enc = make_slack_encoding(bound);
  for (std::int64_t v = 0; v <= enc.max_value(); ++v) {
    EXPECT_EQ(enc.decode(enc.encode(v)), v);
  }
}

TEST_P(SlackRoundTrip, AllBitPatternsDistinct) {
  const std::int64_t bound = GetParam();
  const auto enc = make_slack_encoding(bound);
  std::set<std::int64_t> seen;
  const std::size_t q = enc.num_bits();
  for (std::uint64_t code = 0; code < (1ULL << q); ++code) {
    std::vector<std::uint8_t> bits(q);
    for (std::size_t i = 0; i < q; ++i) {
      bits[i] = static_cast<std::uint8_t>((code >> i) & 1ULL);
    }
    seen.insert(enc.decode(bits));
  }
  // The canonical binary decomposition is a bijection onto [0, 2^Q-1].
  EXPECT_EQ(seen.size(), 1ULL << q);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), enc.max_value());
}

INSTANTIATE_TEST_SUITE_P(Bounds, SlackRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 15, 16, 42, 100,
                                           255, 256));

}  // namespace
}  // namespace saim::problems
