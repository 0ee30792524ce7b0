#include "exec/progress.h"

#include <chrono>
#include <cstdlib>

#ifdef _WIN32
#include <io.h>
#define CPR_ISATTY _isatty
#define CPR_FILENO _fileno
#else
#include <unistd.h>
#define CPR_ISATTY isatty
#define CPR_FILENO fileno
#endif

namespace compresso {

namespace {

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now()
                            .time_since_epoch())
                        .count());
}

constexpr auto kPeriod = std::chrono::milliseconds(250);

} // namespace

ProgressReporter::ProgressReporter(std::string name, uint64_t total,
                                   ProgressMode mode)
    : name_(std::move(name)), total_(total)
{
    tty_ = CPR_ISATTY(CPR_FILENO(stderr)) != 0;
    // Read once at construction, before the reporter thread exists, so
    // the getenv cannot race a concurrent setenv in this process.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("COMPRESSO_PROGRESS");
    bool env_on = env != nullptr && env[0] == '1';
    bool env_off = env != nullptr && env[0] == '0';
    display_ = mode == ProgressMode::kAuto && (tty_ || env_on) && !env_off;
    t0_ns_ = nowNs();
    if (display_)
        thread_ = std::thread([this] { loop(); });
}

ProgressReporter::~ProgressReporter()
{
    if (!display_)
        return;
    {
        MutexLock lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    render(/*final_line=*/true);
}

void
ProgressReporter::loop()
{
    for (;;) {
        {
            MutexLock lk(mu_);
            // One repaint period per pass; a spurious wakeup only
            // repaints early, which is harmless.
            if (!stop_)
                cv_.wait_for(mu_, kPeriod);
            if (stop_)
                return;
        }
        // Render outside mu_: it touches only atomics and
        // constructor-set fields, and must not delay the destructor's
        // stop handshake.
        render(/*final_line=*/false);
    }
}

void
ProgressReporter::render(bool final_line)
{
    uint64_t done = done_.load(std::memory_order_relaxed);
    uint64_t running = running_.load(std::memory_order_relaxed);
    uint64_t failed = failed_.load(std::memory_order_relaxed);
    uint64_t busy = busy_ns_.load(std::memory_order_relaxed);

    char eta[32] = "--";
    if (done > 0 && done < total_) {
        // Remaining work at the average per-job cost, spread over the
        // lanes currently making progress.
        double per_job = double(busy) / double(done);
        double lanes = running > 0 ? double(running) : 1.0;
        double eta_s = per_job * double(total_ - done) / lanes / 1e9;
        std::snprintf(eta, sizeof eta, "%.1fs", eta_s);
    }
    double elapsed_s = double(nowNs() - t0_ns_) / 1e9;

    std::fprintf(stderr,
                 "%s[%s] %llu/%llu done, %llu running, %llu failed, "
                 "elapsed %.1fs, ETA %s%s",
                 tty_ ? "\r\033[K" : "", name_.c_str(),
                 (unsigned long long)done, (unsigned long long)total_,
                 (unsigned long long)running,
                 (unsigned long long)failed, elapsed_s, eta,
                 tty_ && !final_line ? "" : "\n");
    std::fflush(stderr);
}

} // namespace compresso
