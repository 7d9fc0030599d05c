// Unit checks for the harness's own arithmetic (stats.hpp): the percentile
// rule, span self time, failed_frac and worker_util. Exit 0 when every
// check holds; each failure prints one line.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++failures;
    }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

perfbench::Span span(std::uint32_t id, std::uint32_t parent, long lo, long hi) {
    perfbench::Span s;
    s.id = id;
    s.parent = parent;
    s.name = "s";
    s.start_ns = lo;
    s.end_ns = hi;
    return s;
}

}  // namespace

int main() {
    using namespace perfbench;

    // Nearest rank over 1..100: p50 is 50, p90 is 90, p100 the maximum.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    check(near(percentile(v, 50), 50), "p50 of 1..100");
    check(near(percentile(v, 90), 90), "p90 of 1..100");
    check(near(percentile(v, 100), 100), "p100 of 1..100");
    check(near(percentile(v, 0), 1), "p0 is the minimum");
    check(near(percentile({}, 50), 0), "empty set reads 0");
    check(near(median({3, 1, 2}), 2), "median of three");
    check(near(median({4, 1, 3, 2}), 2), "median of four is the lower middle");

    // Ten samples must lie beyond a reported tail percentile.
    check(samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
    check(percentile_supported(100, 90), "p90 supported at n=100");
    check(!percentile_supported(99, 90), "p90 unsupported at n=99");
    check(samples_beyond(55, 90) == 5, "55 samples: 5 beyond p90");
    check(percentile_supported(1000, 99), "p99 supported at n=1000");
    check(!percentile_supported(999, 99), "p99 unsupported at n=999");

    check(near(failed_frac(0, 10), 0.0), "failed_frac none failed");
    check(near(failed_frac(3, 12), 0.25), "failed_frac 3 of 12");
    check(near(failed_frac(0, 0), 1.0), "failed_frac with nothing attempted");

    check(near(worker_util(300, 2, 200), 0.75), "worker_util 300/(2x200)");
    check(near(worker_util(400, 2, 200), 1.0), "worker_util saturated");
    check(near(worker_util(5, 0, 10), 0.0), "worker_util without workers");
    check(near(worker_util(5, 2, 0), 0.0), "worker_util without batch time");

    // Self time: a parent [0,100) with children [10,30) and [40,70), a
    // grandchild inside the first child, and a second root after it.
    {
        const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                         span(3, 2, 12, 18), span(4, 1, 40, 70),
                                         span(5, 0, 100, 110)};
        const std::vector<std::int64_t> self = self_times_ns(spans);
        check(self[0] == 50, "parent self = 100 - 20 - 30");
        check(self[1] == 14, "child self = 20 - grandchild 6");
        check(self[2] == 6, "grandchild self = duration");
        check(self[3] == 30, "leaf self = duration");
        check(self[4] == 10, "second root self = duration");
    }

    if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
