#include "core/env.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace sct::env {

std::optional<std::string> get(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::optional<std::string>(value) : std::nullopt;
}

namespace {

enum class Digits { kOk, kInvalid, kOutOfRange };

/// Digits-only base-10 parse bounded by `max`; `out` is set on kOk.
Digits parseDigits(std::string_view value, std::uint64_t max,
                   std::uint64_t& out) noexcept {
  std::uint64_t parsed = 0;
  for (const char ch : value) {
    if (ch < '0' || ch > '9') return Digits::kInvalid;
    const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
    // Overflow-safe accumulate: reject before the multiply can wrap.
    if (parsed > max / 10 || parsed * 10 > max - digit) {
      return Digits::kOutOfRange;
    }
    parsed = parsed * 10 + digit;
  }
  out = parsed;
  return Digits::kOk;
}

}  // namespace

std::size_t parseSize(std::string_view what, std::string_view value,
                      std::size_t fallback, std::size_t max) noexcept {
  if (value.empty()) return fallback;
  std::uint64_t parsed = 0;
  const Digits status = parseDigits(value, max, parsed);
  if (status == Digits::kOk) return static_cast<std::size_t>(parsed);
  if (status == Digits::kInvalid) {
    std::fprintf(stderr,
                 "sct: ignoring invalid %.*s '%.*s' "
                 "(want a non-negative count); using %zu\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<int>(value.size()), value.data(), fallback);
  } else {
    std::fprintf(stderr, "sct: %.*s '%.*s' out of range (max %zu); using %zu\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<int>(value.size()), value.data(), max, fallback);
  }
  return fallback;
}

std::uint64_t parseCount(std::string_view what, std::string_view value,
                         std::uint64_t max) {
  std::uint64_t parsed = 0;
  const Digits status =
      value.empty() ? Digits::kInvalid : parseDigits(value, max, parsed);
  if (status == Digits::kOk) return parsed;
  std::string message = std::string(what) + " '" + std::string(value) + "'";
  message += status == Digits::kInvalid
                 ? ": want a non-negative count"
                 : ": out of range (max " + std::to_string(max) + ")";
  throw std::invalid_argument(message);
}

double parseReal(std::string_view what, std::string_view value) {
  double parsed = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec == std::errc() && ptr == end && std::isfinite(parsed)) return parsed;
  throw std::invalid_argument(std::string(what) + " '" + std::string(value) +
                              "': want a finite number");
}

bool parseFlag(std::string_view what, std::string_view value,
               bool fallback) noexcept {
  if (value.empty()) return fallback;
  if (value == "1" || value == "true" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "false" || value == "off" || value == "no") {
    return false;
  }
  std::fprintf(stderr,
               "sct: ignoring invalid %.*s '%.*s' (want 1/0, true/false, "
               "on/off or yes/no); using %s\n",
               static_cast<int>(what.size()), what.data(),
               static_cast<int>(value.size()), value.data(),
               fallback ? "true" : "false");
  return fallback;
}

}  // namespace sct::env
