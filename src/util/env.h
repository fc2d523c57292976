// Tiny environment-variable configuration helpers.
//
// The bench harness is scaled through JSCHED_* variables (e.g. JSCHED_JOBS)
// so the paper-size runs and quick smoke runs share one binary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace jsched::util {

/// Raw lookup; nullopt when unset.
std::optional<std::string> env_string(const std::string& name);

/// Integer lookup with default; throws std::invalid_argument unless the
/// whole value is an int64 (see parse_number).
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Double lookup with default; throws std::invalid_argument unless the
/// whole value is a finite double (see parse_number).
double env_double(const std::string& name, double fallback);

/// Boolean lookup: "1/true/yes/on" => true, "0/false/no/off" => false.
bool env_bool(const std::string& name, bool fallback);

}  // namespace jsched::util
