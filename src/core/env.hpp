#pragma once
// Shared environment-variable parsing with warn-and-fallback semantics.
// Every SCT_* variable goes through these helpers (SCT_THREADS via
// parallel::parseThreadSpec, SCT_STA_CHECK, SCT_CACHE_DIR, SCT_TRACE,
// SCT_METRICS), so garbage input degrades the same way everywhere: one
// stderr warning naming the setting, then the documented fallback —
// never an exception, never silent acceptance. parseCount() applies the
// same digit rules to command-line flags, where bad input is an error.
//
// Lives in src/core but builds as its own dependency-free target
// (sct_env), so low layers like src/parallel can use it without pulling
// in the flow facade.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace sct::env {

/// Raw environment lookup; nullopt when the variable is unset.
[[nodiscard]] std::optional<std::string> get(const char* name);

/// Parses a non-negative base-10 count. Strict: digits only (no sign,
/// whitespace, hex or suffixes). Empty falls back silently; garbage or a
/// value above `max` (including u64 overflow) warns on stderr — naming
/// `what`, e.g. "SCT_THREADS" or "thread spec" — and returns `fallback`.
[[nodiscard]] std::size_t parseSize(
    std::string_view what, std::string_view value, std::size_t fallback,
    std::size_t max = std::numeric_limits<std::size_t>::max()) noexcept;

/// Strict command-line count: the parseSize() digit rules, but bad input
/// throws std::invalid_argument naming `what` (e.g. "--tcp-port") instead of
/// warning and falling back. Empty input and values above `max` are errors.
[[nodiscard]] std::uint64_t parseCount(
    std::string_view what, std::string_view value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Strict command-line real number under parseCount()'s conventions: the
/// whole token must parse as a decimal or exponent literal (a leading '-' is
/// allowed, no '+', whitespace, hex or trailing garbage) and the value must
/// be finite. Bad input throws std::invalid_argument naming `what`.
[[nodiscard]] double parseReal(std::string_view what, std::string_view value);

/// Largest MiB count whose byte size (count << 20) fits in 64 bits; the
/// `max` for parseCount() on mebibyte flags.
inline constexpr std::uint64_t kMaxMebibytes =
    std::numeric_limits<std::uint64_t>::max() >> 20;

/// Parses a boolean flag: "1"/"true"/"on"/"yes" and "0"/"false"/"off"/"no"
/// (case-sensitive, the spellings users actually type). Empty falls back
/// silently; anything else warns on stderr and returns `fallback`.
[[nodiscard]] bool parseFlag(std::string_view what, std::string_view value,
                             bool fallback) noexcept;

}  // namespace sct::env
