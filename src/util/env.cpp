#include "util/env.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "util/number.h"

namespace jsched::util {

std::optional<std::string> env_string(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  std::int64_t parsed = 0;
  if (!parse_number(*v, parsed)) {
    throw std::invalid_argument(name + ": not an integer: " + *v);
  }
  return parsed;
}

double env_double(const std::string& name, double fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  double parsed = 0.0;
  if (!parse_number(*v, parsed)) {
    throw std::invalid_argument(name + ": not a number: " + *v);
  }
  return parsed;
}

bool env_bool(const std::string& name, bool fallback) {
  auto v = env_string(name);
  if (!v) return fallback;
  std::string s = *v;
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument(name + ": not a boolean: " + *v);
}

}  // namespace jsched::util
