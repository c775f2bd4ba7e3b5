// Exactness of the invariant-divisor reciprocals (table/divisor.hpp): every
// quotient and remainder must equal the hardware `/` and `%`, across edge
// numerators and divisors at every magnitude — a single off-by-one in the
// multiplier would silently corrupt every decode-of-interest.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "table/divisor.hpp"
#include "table/key_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace wfbn {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

std::vector<std::uint64_t> divisors() {
  std::vector<std::uint64_t> out = {1, 2, 3, 5, 7, 10, 255, 641, 6700417};
  for (unsigned k = 1; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    out.push_back(p);
    out.push_back(p - 1);
    out.push_back(p + 1);
  }
  // Primes either side of 2^32 and 2^63, the largest 64-bit prime, and the
  // two largest divisors.
  out.insert(out.end(),
             {4294967279ULL, 4294967291ULL, 4294967311ULL,
              9223372036854775783ULL, 9223372036854775837ULL,
              18446744073709551557ULL, kMax, kMax - 1});
  return out;
}

std::vector<std::uint64_t> numerators(std::uint64_t d, Xoshiro256& rng) {
  std::vector<std::uint64_t> out = {0, 1, 2, d - 1, d, kMax, kMax - 1,
                                    kMax / 2, kMax / 2 + 1};
  if (d < kMax) out.push_back(d + 1);
  // Multiples of d, and their neighbours, up to the top of the range.
  for (const std::uint64_t q : {std::uint64_t{2}, std::uint64_t{3}, kMax / d,
                                kMax / d - 1, kMax / d / 2}) {
    if (q == 0 || q > kMax / d) continue;
    const std::uint64_t multiple = q * d;
    out.push_back(multiple);
    out.push_back(multiple - 1);
    if (multiple < kMax) out.push_back(multiple + 1);
  }
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t r = rng();
    out.push_back(r);
    out.push_back(r >> (r % 64));  // spread over every magnitude
  }
  return out;
}

TEST(Divisor, MatchesHardwareDivisionAndRemainder) {
  Xoshiro256 rng(0xD1715055ULL);
  for (const std::uint64_t d : divisors()) {
    const Divisor divisor(d);
    ASSERT_EQ(divisor.value(), d);
    for (const std::uint64_t n : numerators(d, rng)) {
      ASSERT_EQ(divisor.divide(n), n / d) << n << " / " << d;
      ASSERT_EQ(divisor.modulo(n), n % d) << n << " % " << d;
    }
  }
}

TEST(Divisor, RandomDivisorsAtEveryWidth) {
  Xoshiro256 rng(0xC0DEC0DEULL);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t d = (rng() >> (rng() % 64)) | 1;
    const Divisor divisor(d);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t n = rng() >> (rng() % 64);
      ASSERT_EQ(divisor.divide(n), n / d) << n << " / " << d;
      ASSERT_EQ(divisor.modulo(n), n % d) << n << " % " << d;
    }
  }
}

// The 32-bit reciprocal of the tile decode's narrow lanes: every radix a
// State can need (2..256) and a few larger 32-bit divisors, at the edge
// numerators 0, d − 1, d, the multiples k·d and their neighbours k·d ± 1 up
// to 2^32 − 1, then 10^6 random 32-bit numerators spread over the radices.
TEST(Divisor, ThirtyTwoBitReciprocalMatchesHardwareDivision) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint32_t>::max();
  const auto check = [](const Divisor& divisor, std::uint64_t n) {
    const std::uint64_t d = divisor.value();
    const auto x = static_cast<std::uint32_t>(n);
    const std::uint32_t q = divisor.divide32(x);
    ASSERT_EQ(q, x / d) << n << " / " << d;
    ASSERT_EQ(x - q * d, x % d) << n << " % " << d;
  };
  std::vector<std::uint64_t> radices;
  for (std::uint64_t r = 2; r <= 256; ++r) radices.push_back(r);
  radices.insert(radices.end(), {257, 641, 65535, 65537, 6700417, 2147483647,
                                 2147483648, 2147483649, 4294967291, kTop});
  for (const std::uint64_t d : radices) {
    const Divisor divisor(d);
    const std::uint64_t top_multiple = kTop / d;
    std::vector<std::uint64_t> multipliers = {1, 2, 3, top_multiple - 1,
                                              top_multiple};
    for (std::uint64_t k = 4; k < top_multiple; k *= 2) {
      multipliers.push_back(k);
      multipliers.push_back(k + 1);
    }
    for (const std::uint64_t n : {std::uint64_t{0}, d - 1, d, kTop}) {
      check(divisor, n);
    }
    for (const std::uint64_t k : multipliers) {
      if (k == 0) continue;
      const std::uint64_t multiple = k * d;
      check(divisor, multiple - 1);
      check(divisor, multiple);
      if (multiple < kTop) check(divisor, multiple + 1);
    }
  }
  Xoshiro256 rng(0x32B17ULL);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t d = radices[static_cast<std::size_t>(i) % radices.size()];
    check(Divisor(d), rng() & kTop);
  }
}

TEST(Divisor, OneIsIdentityAndZeroIsRejected) {
  const Divisor one(1);
  EXPECT_EQ(one.value(), 1u);
  EXPECT_EQ(one.divide(kMax), kMax);
  EXPECT_EQ(one.modulo(kMax), 0u);
  EXPECT_THROW((void)Divisor(0), PreconditionError);
}

TEST(Divisor, DecodeLegMatchesCodecDecodeAtBothWidths) {
  const std::vector<std::uint32_t> cardinalities = {2, 3, 7, 4, 5, 255, 2, 9};
  const KeyCodec narrow(cardinalities);
  const WideKeyCodec wide(cardinalities);
  Xoshiro256 rng(7);
  std::vector<State> states(cardinalities.size());
  for (int trial = 0; trial < 500; ++trial) {
    for (std::size_t v = 0; v < states.size(); ++v) {
      states[v] = static_cast<State>(rng() % cardinalities[v]);
    }
    const Key key = narrow.encode(states);
    const WideKey wide_key = wide.encode(states);
    for (std::size_t v = 0; v < states.size(); ++v) {
      EXPECT_EQ(KeyCodec::decode_leg(narrow.leg_of(v), key), states[v]);
      EXPECT_EQ(WideKeyCodec::decode_leg(wide.leg_of(v), wide_key), states[v]);
    }
  }
}

}  // namespace
}  // namespace wfbn
