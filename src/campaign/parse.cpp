#include "parse.hpp"

#include <charconv>
#include <system_error>

namespace autovision::campaign {

std::optional<std::uint64_t> parse_decimal(std::string_view s,
                                           std::uint64_t lo,
                                           std::uint64_t hi) {
    std::uint64_t v = 0;
    const char* const end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || stop != end || v < lo || v > hi) {
        return std::nullopt;
    }
    return v;
}

std::optional<double> parse_finite(std::string_view s, double lo, double hi) {
    double v = 0.0;
    const char* const end = s.data() + s.size();
    const auto [stop, ec] = std::from_chars(s.data(), end, v);
    // The negated range test also refuses NaN.
    if (ec != std::errc() || stop != end || !(v >= lo && v <= hi)) {
        return std::nullopt;
    }
    return v;
}

}  // namespace autovision::campaign
