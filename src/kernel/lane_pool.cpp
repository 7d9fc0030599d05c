#include "lane_pool.hpp"

namespace rtlsim {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

LanePool::LanePool(unsigned workers) {
    // Spinning only pays when a worker can watch the epoch advance from
    // another core; on one core it just burns the quantum the producer
    // needs.
    spin_ = std::thread::hardware_concurrency() > 1 ? 4096 : 0;
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { worker_main(); });
    }
}

LanePool::~LanePool() {
    {
        std::lock_guard<std::mutex> lk(m_);
        quit_.store(true);
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void LanePool::claim_loop(std::uint64_t epoch) {
    const unsigned n = njobs_.load(std::memory_order_acquire);
    const std::uint64_t tag = epoch << 32;
    std::uint64_t cur = next_.load(std::memory_order_relaxed);
    while (true) {
        // The claim must belong to `epoch`: run() may already have reset
        // the cursor for a newer run this thread has not synchronized with.
        if ((cur & ~0xFFFF'FFFFull) != tag || (cur & 0xFFFF'FFFFull) >= n) {
            return;
        }
        if (!next_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_relaxed)) {
            continue;
        }
        (*job_)(static_cast<unsigned>(cur));
        cur = next_.load(std::memory_order_relaxed);
        if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
            // Serialize with the waiter so the notify cannot slip between
            // its predicate check and its wait.
            std::lock_guard<std::mutex> lk(m_);
            cv_done_.notify_all();
        }
    }
}

void LanePool::run(unsigned njobs, const std::function<void(unsigned)>& job) {
    if (njobs == 0) return;
    if (threads_.empty()) {
        for (unsigned i = 0; i < njobs; ++i) job(i);
        return;
    }
    std::uint64_t epoch = 0;
    {
        std::lock_guard<std::mutex> lk(m_);
        epoch = epoch_.load(std::memory_order_relaxed) + 1;
        job_ = &job;
        next_.store(epoch << 32, std::memory_order_relaxed);
        done_.store(0, std::memory_order_relaxed);
        njobs_.store(njobs, std::memory_order_release);
        epoch_.store(epoch, std::memory_order_release);
    }
    cv_.notify_all();
    claim_loop(epoch);
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [&] {
        return done_.load(std::memory_order_acquire) == njobs;
    });
}

void LanePool::worker_main() {
    std::uint64_t seen = 0;
    while (true) {
        bool fresh = false;
        for (unsigned i = 0; i < spin_; ++i) {
            if (quit_.load(std::memory_order_relaxed)) return;
            if (epoch_.load(std::memory_order_acquire) != seen) {
                fresh = true;
                break;
            }
            cpu_relax();
        }
        if (!fresh) {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] {
                return quit_.load(std::memory_order_relaxed) ||
                       epoch_.load(std::memory_order_acquire) != seen;
            });
            if (quit_.load(std::memory_order_relaxed)) return;
        }
        seen = epoch_.load(std::memory_order_acquire);
        claim_loop(seen);
    }
}

}  // namespace rtlsim
