// Small string helpers shared across modules.

#ifndef PASCALR_BASE_STR_UTIL_H_
#define PASCALR_BASE_STR_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pascalr {

/// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// ASCII lower-casing (the query language is case-insensitive on keywords).
std::string AsciiToLower(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// 64-bit FNV-1a, used for hash-combining tuple values.
inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 1469598103934665603ULL) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Mixes a 64-bit value into a running hash (boost::hash_combine style).
inline uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace pascalr

#endif  // PASCALR_BASE_STR_UTIL_H_
