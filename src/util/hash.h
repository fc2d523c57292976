// FNV-1a (64-bit), the framework's one content hash. Journal and JWB1
// block checksums, workload and schedule fingerprints and sweep cell keys
// are all built from these two functions. Several of those values live on
// disk, so the constants and the byte order never change.
#pragma once

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

/// `h` with the 8 bytes of `v` folded in, least significant byte first:
/// the step every fingerprint takes per 64-bit field. Inline because the
/// streaming paths mix about a dozen words per job.
constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace jsched::util
