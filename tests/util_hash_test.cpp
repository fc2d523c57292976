// util::fnv1a_mix folds the zero bytes above a word's highest set byte in
// with one multiply; every checksum and fingerprint on disk assumes it
// equals FNV-1a taken one byte at a time.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string_view>

namespace jsched::util {
namespace {

/// The FNV-1a step over the 8 bytes of `v`, least significant first.
std::uint64_t byte_loop(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// The mix stays usable in constant expressions, and agrees with fnv1a()
// over the same bytes.
static_assert(fnv1a_mix(kFnvOffset, 0x1234) == 0x07b32d0dc6fdf72bull);
static_assert(fnv1a_mix(kFnvOffset, 0x1234) ==
              fnv1a(std::string_view("\x34\x12\0\0\0\0\0\0", 8)));

TEST(FnvMix, EqualsTheByteLoopOnEdgeWords) {
  const std::uint64_t words[] = {
      0,
      1,
      0xff,
      0x100,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 63,
      ~std::uint64_t{0},
      static_cast<std::uint64_t>(std::int64_t{-1}),
      static_cast<std::uint64_t>(std::int64_t{-3600}),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
  };
  for (const std::uint64_t h : {kFnvOffset, std::uint64_t{0}, ~std::uint64_t{0}}) {
    for (const std::uint64_t v : words) {
      EXPECT_EQ(fnv1a_mix(h, v), byte_loop(h, v)) << std::hex << h << " " << v;
    }
  }
}

TEST(FnvMix, EqualsTheByteLoopOnRandomWordsOfEveryWidth) {
  std::mt19937_64 rng(20261020);
  for (int bits = 1; bits <= 64; ++bits) {
    for (int k = 0; k < 2000; ++k) {
      // Highest set bit exactly at bits - 1.
      const std::uint64_t v =
          (rng() >> (64 - bits)) | (std::uint64_t{1} << (bits - 1));
      const std::uint64_t h = rng();
      ASSERT_EQ(fnv1a_mix(h, v), byte_loop(h, v))
          << std::hex << h << " " << v << " (" << std::dec << bits
          << " bits)";
    }
  }
}

}  // namespace
}  // namespace jsched::util
