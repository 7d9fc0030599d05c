// campaignd: the campaign service daemon CLI.
//
//   campaignd --socket /tmp/campaignd.sock --state /tmp/campaignd.state
//             [--shards N] [--executors N] [--jobs N] [--ckpt-interval N]
//             [--timeout MS] [--retries R] [--max-jobs N]
//             [--max-per-client N] [--max-queued N] [--quiet]
//
// Runs in the foreground (a supervisor or the CI smoke backgrounds it) and
// serves the wire protocol on the socket until a client sends kShutdown or
// the process receives SIGINT/SIGTERM. Jobs in flight at a graceful stop
// checkpoint out and resume at the next start; a SIGKILL'd daemon recovers
// from the journal in --state.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "svc/daemon.hpp"

namespace {

autovision::svc::Daemon* g_daemon = nullptr;

void on_signal(int) {
    if (g_daemon != nullptr) g_daemon->signal_stop();
}

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --socket PATH --state DIR [--shards N] [--executors N]\n"
        "          [--jobs N] [--ckpt-interval N] [--timeout MS]\n"
        "          [--retries R] [--max-jobs N] [--max-per-client N]\n"
        "          [--max-queued N] [--quiet]\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    using autovision::svc::Daemon;
    using autovision::svc::DaemonConfig;

    DaemonConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&]() -> const char* {
            return ++i < argc ? argv[i] : nullptr;
        };
        const char* v = nullptr;
        if (a == "--socket" && (v = val())) {
            cfg.socket_path = v;
        } else if (a == "--state" && (v = val())) {
            cfg.state_dir = v;
        } else if (a == "--shards" && (v = val())) {
            cfg.shards = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (a == "--executors" && (v = val())) {
            cfg.executors =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (a == "--jobs" && (v = val())) {
            cfg.exec.job_workers =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (a == "--ckpt-interval" && (v = val())) {
            cfg.exec.ckpt_interval =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (a == "--timeout" && (v = val())) {
            cfg.exec.timeout =
                std::chrono::milliseconds{std::strtol(v, nullptr, 0)};
        } else if (a == "--retries" && (v = val())) {
            cfg.exec.retries =
                static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (a == "--max-jobs" && (v = val())) {
            cfg.admission.max_jobs = std::strtoul(v, nullptr, 0);
        } else if (a == "--max-per-client" && (v = val())) {
            cfg.admission.max_per_client = std::strtoul(v, nullptr, 0);
        } else if (a == "--max-queued" && (v = val())) {
            cfg.admission.max_queued_per_class = std::strtoul(v, nullptr, 0);
        } else if (a == "--quiet") {
            cfg.quiet = true;
        } else {
            return usage(argv[0]);
        }
    }
    if (cfg.socket_path.empty() || cfg.state_dir.empty()) {
        return usage(argv[0]);
    }

    // A client vanishing mid-write must surface as a write error, not kill
    // the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    Daemon daemon(cfg);
    g_daemon = &daemon;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::string err;
    if (!daemon.start(&err)) {
        std::fprintf(stderr, "campaignd: start failed: %s\n", err.c_str());
        return 1;
    }
    daemon.run();
    g_daemon = nullptr;
    return 0;
}
