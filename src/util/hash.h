// FNV-1a (64-bit), the framework's one content hash. Journal and JWB1
// block checksums, workload and schedule fingerprints and sweep cell keys
// are all built from these two functions. Several of those values live on
// disk, so the constants and the byte order never change.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace jsched::util {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over the bytes of `data`.
constexpr std::uint64_t fnv1a(std::string_view data) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// kFnvPrime^k mod 2^64 at index k: k zero bytes folded in at once.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();

/// `h` with the 8 bytes of `v` folded in, least significant byte first:
/// the step every fingerprint takes per 64-bit field. Inline because the
/// streaming paths mix about a dozen words per job.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  // Xor with a zero byte changes nothing, so once the rest of `v` is zero
  // its k remaining bytes cost one multiply by kFnvPrime^k, not k serial
  // multiplies. Fields are mostly small, so most of their bytes are zero.
  std::size_t byte = 0;
  for (; v != 0; ++byte, v >>= 8) {
    h ^= v & 0xffu;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePowers[8 - byte];
}

}  // namespace jsched::util
