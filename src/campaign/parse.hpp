// Strict number parsing, shared by campaign_runner's options and the
// service's job params (DESIGN §12): one copy, so the two programs accept
// and refuse the same text.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace autovision::campaign {

/// Largest seed count, batch count or batch size: each sizes an
/// allocation, so neither a command line nor a wire frame may choose it
/// unbounded.
inline constexpr std::uint64_t kMaxCount = 4096;

/// A decimal integer in [lo, hi]: digits only, no sign, space or base
/// prefix. Empty for anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(std::string_view s,
                                                         std::uint64_t lo,
                                                         std::uint64_t hi);

/// A finite number in [lo, hi]; never NaN or an infinity.
[[nodiscard]] std::optional<double> parse_finite(std::string_view s,
                                                 double lo, double hi);

}  // namespace autovision::campaign
