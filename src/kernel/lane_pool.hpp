// rtlsim: a small work-stealing pool for parallel evaluate phases.
//
// One simulation's evaluate phase fans the runnable processes of a delta
// out over event *lanes* (see scheduler.hpp). The pool holds `workers`
// persistent threads; a run() call publishes `njobs` lane jobs and the
// calling thread participates, so `workers = lanes - 1` keeps every core
// busy without oversubscribing. Idle participants steal the next
// unclaimed lane index from a shared counter, which load-balances uneven
// lane sizes at the granularity that matters here (a lane's whole delta
// queue, a few hundred nanoseconds of work).
//
// Deltas are short, so the fork/join cost decides whether lanes win.
// Workers therefore spin briefly on the epoch counter before parking on a
// condition variable: during dense activity (every clock edge) the wake
// path is two atomic round-trips, and the condvar is only paid when the
// simulation goes quiet. On a single-core host spinning is pure loss, so
// the spin budget collapses to zero there.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtlsim {

class LanePool {
public:
    explicit LanePool(unsigned workers);
    ~LanePool();

    LanePool(const LanePool&) = delete;
    LanePool& operator=(const LanePool&) = delete;

    [[nodiscard]] unsigned workers() const noexcept {
        return static_cast<unsigned>(threads_.size());
    }

    /// Run job(i) for every i in [0, njobs); the calling thread
    /// participates and the call returns only when all jobs finished.
    /// All memory effects of the jobs happen-before the return.
    void run(unsigned njobs, const std::function<void(unsigned)>& job);

private:
    void worker_main();
    void claim_loop(std::uint64_t epoch);

    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_;       ///< workers wait for a new epoch
    std::condition_variable cv_done_;  ///< run() waits for completion
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<bool> quit_{false};
    /// Claim cursor tagged with its run: (epoch << 32) | next job index.
    /// A worker still leaving an earlier run cannot claim an index of a
    /// newer one, whose job it never synchronized with.
    std::atomic<std::uint64_t> next_{0};
    std::atomic<unsigned> done_{0};
    std::atomic<unsigned> njobs_{0};
    const std::function<void(unsigned)>* job_ = nullptr;
    unsigned spin_ = 0;
};

}  // namespace rtlsim
