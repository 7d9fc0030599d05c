// perfbench: the span tracer and the helpers the workloads share.
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent) {
    if (!on_) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = name;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - origin_)
                     .count();
    s.end_ns = s.start_ns;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void Tracer::finish(std::uint32_t id) {
    spans_[id - 1].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - origin_)
                                .count();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) out.push_back(static_cast<double>(s.duration_ns()) / 1e6);
    }
    return out;
}

bool Tracer::write_chrome(const std::string& path) const {
    std::ofstream os(path, std::ios::out | std::ios::trunc);
    const std::vector<std::int64_t> self = self_times_ns(spans_);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                      "\"parent\":%u,\"self_us\":%.3f}}",
                      i == 0 ? "" : ",\n", s.name.c_str(),
                      static_cast<double>(s.start_ns) / 1e3,
                      static_cast<double>(s.duration_ns()) / 1e3, s.id,
                      s.parent, static_cast<double>(self[i]) / 1e3);
        os << buf;
    }
    os << "]}\n";
    return static_cast<bool>(os);
}

double peak_rss_mib() {
    rusage ru{};
    if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
