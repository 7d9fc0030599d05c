// perfbench: the harness's own arithmetic — percentiles, span self time,
// failure fraction and worker utilisation. Header-only and free of any
// simulator dependency, so harness/selftest.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it. 0 for an empty set.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
    return v[idx];
}

[[nodiscard]] inline double median(std::vector<double> v) {
    return percentile(std::move(v), 50.0);
}

/// Samples strictly above the nearest-rank `p` percentile's rank, i.e. the
/// samples that lie beyond it.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return n > rank ? n - rank : 0;
}

/// A tail percentile is reportable only when at least `min_beyond` (10 by
/// the benchmark's rule) samples lie beyond it.
[[nodiscard]] inline bool percentile_supported(std::size_t n, double p,
                                               std::size_t min_beyond = 10) {
    return samples_beyond(n, p) >= min_beyond;
}

[[nodiscard]] inline double failed_frac(std::uint64_t failed,
                                        std::uint64_t attempted) {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

/// Share of the pool's capacity spent inside jobs: summed job wall over
/// (workers x summed batch wall). The batch barrier shows as the gap to 1.
[[nodiscard]] inline double worker_util(double job_wall_sum, unsigned workers,
                                        double batch_wall_sum) {
    if (workers == 0 || batch_wall_sum <= 0.0) return 0.0;
    return job_wall_sum / (static_cast<double>(workers) * batch_wall_sum);
}

/// One timed call into a layer. `parent` is the id of the enclosing span
/// (0 = none); ids start at 1.
struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// its direct children's durations. Spans are ids 1..n in order (as the
/// Tracer records them) and nest strictly, so children never overlap.
[[nodiscard]] inline std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].duration_ns();
        if (spans[i].parent != 0) {
            self[spans[i].parent - 1] -= spans[i].duration_ns();
        }
    }
    return self;
}

}  // namespace perfbench
