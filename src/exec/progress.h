/**
 * @file
 * Campaign progress on stderr: jobs done/running/failed plus an ETA.
 *
 * A reporter thread repaints at a fixed period; workers only bump
 * atomics, so reporting costs the jobs nothing. On a TTY the line
 * repaints in place (\r); piped to a file it prints at most one line
 * per period, so CI logs stay readable. The thread only exists while
 * the reporter displays.
 */

#ifndef COMPRESSO_EXEC_PROGRESS_H
#define COMPRESSO_EXEC_PROGRESS_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace compresso {

/** How CampaignPolicy asks for progress output. */
enum class ProgressMode
{
    kAuto, ///< on when stderr is a TTY or COMPRESSO_PROGRESS=1
    kOff,
};

class ProgressReporter
{
  public:
    /**
     * @param name   campaign name shown in every line
     * @param total  total job count
     * @param mode   see ProgressMode (kAuto consults isatty/stderr)
     */
    ProgressReporter(std::string name, uint64_t total, ProgressMode mode);
    /** Stops the thread and, when displaying, prints the final line. */
    ~ProgressReporter();
    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

    void jobStarted() { ++running_; }

    void
    jobFinished(bool ok, uint64_t host_ns)
    {
        --running_;
        ++done_;
        if (!ok)
            ++failed_;
        busy_ns_ += host_ns;
    }

  private:
    void loop();
    void render(bool final_line);

    std::string name_;
    uint64_t total_;
    bool display_ = false;

    std::atomic<uint64_t> done_{0};
    std::atomic<uint64_t> running_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> busy_ns_{0}; ///< summed per-job host time

    uint64_t t0_ns_ = 0;
    bool tty_ = false;
    Mutex mu_;
    CondVar cv_;
    bool stop_ GUARDED_BY(mu_) = false;
    std::thread thread_;
};

} // namespace compresso

#endif // COMPRESSO_EXEC_PROGRESS_H
