/**
 * @file
 * Supervised: the one crash-isolation core.
 *
 * A single-threaded pool of forked children, each writing to the
 * parent over its own pipe.  The pool forks, waits for output, passes
 * the raw bytes on without parsing them, SIGKILLs a child that has
 * been silent too long, reaps each child (retrying on EINTR) and
 * words how it ended.  What the bytes mean and what a death costs
 * is the caller's policy: ExperimentRunner's isolated cells (retry
 * queue, quarantine) and the DSE shard supervisor (line protocol,
 * unit strikes, restart budget, degradation) both sit on top of it.
 */

#ifndef CHARON_HARNESS_SUPERVISED_HH
#define CHARON_HARNESS_SUPERVISED_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace charon::harness
{

class Supervised
{
  public:
    using Clock = std::chrono::steady_clock;

    /** How a reaped child ended. */
    struct Exit
    {
        /** The status the child passed to exit; -1 when a signal,
         *  the watchdog's included, ended it. */
        int code = -1;
        /** "timed out after 2.0s of silence", "killed by signal 6
         *  (Aborted)" or "exited with status 3". */
        std::string why;
    };

    using OnBytes =
        std::function<void(std::size_t tag, std::string_view bytes)>;
    using OnExit =
        std::function<void(std::size_t tag, const Exit &exit)>;

    Supervised() = default;
    Supervised(const Supervised &) = delete;
    Supervised &operator=(const Supervised &) = delete;
    /** Kills and reaps every child still running. */
    ~Supervised();

    /**
     * Fork a child that runs @p body on the write end of its pipe,
     * then _Exits(0); an exception escaping @p body terminates it.
     * @p tag names the child in the callbacks and must be unique
     * among running children.  With @p silenceSec > 0 the watchdog
     * SIGKILLs the child once it has written nothing for that long.
     * @retval false pipe(2) or fork(2) failed; @p error says which.
     */
    bool spawn(std::size_t tag, double silenceSec,
               const std::function<void(int fd)> &body,
               std::string *error = nullptr);

    /**
     * One bounded step: wait for output until @p until or the nearest
     * watchdog edge, pass every byte read to @p onBytes, SIGKILL the
     * children silent past their limit, and report each child that
     * has exited to @p onExit (may be empty) after its last bytes.
     * With no children it only sleeps.  The callbacks must not call
     * back into the pool.
     */
    void poll(Clock::time_point until, const OnBytes &onBytes,
              const OnExit &onExit);

    std::size_t running() const { return children_.size(); }

    void signalAll(int sig);

    /** SIGKILL and reap every running child, reporting none. */
    void killAll();

    /** Retry backoff: @p baseSec * 2^min(n, 6) seconds. */
    static double backoffSec(double baseSec, int n);

    /** The time point @p seconds from now. */
    static Clock::time_point after(double seconds);

  private:
    struct Child
    {
        std::size_t tag;
        pid_t pid;
        int fd; ///< read end, non-blocking
        double silenceSec;
        Clock::time_point lastOutput;
        bool timedOut = false;
    };

    std::vector<Child> children_;
};

} // namespace charon::harness

#endif // CHARON_HARNESS_SUPERVISED_HH
