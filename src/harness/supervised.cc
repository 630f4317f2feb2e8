#include "supervised.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/logging.hh"

namespace charon::harness
{

namespace
{

Supervised::Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Supervised::Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** waitpid(2), retried on EINTR. */
pid_t
reap(pid_t pid, int &status, int options)
{
    pid_t r;
    while ((r = ::waitpid(pid, &status, options)) < 0 && errno == EINTR) {
    }
    return r;
}

} // namespace

Supervised::~Supervised()
{
    killAll();
}

bool
Supervised::spawn(std::size_t tag, double silenceSec,
                  const std::function<void(int fd)> &body,
                  std::string *error)
{
    auto fail = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    int fds[2];
    if (::pipe(fds) != 0)
        return fail("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return fail("fork() failed");
    }
    if (pid == 0) {
        // In the child: run the body, then leave without atexit
        // handlers or flushing inherited stdio buffers.
        ::close(fds[0]);
        [&]() noexcept { body(fds[1]); }();
        std::_Exit(0);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    children_.push_back(Child{tag, pid, fds[0], silenceSec, Clock::now()});
    return true;
}

void
Supervised::poll(Clock::time_point until, const OnBytes &onBytes,
                 const OnExit &onExit)
{
    for (const Child &c : children_) {
        if (c.silenceSec > 0 && !c.timedOut)
            until = std::min(until,
                             c.lastOutput + toDuration(c.silenceSec));
    }
    if (children_.empty()) {
        std::this_thread::sleep_until(until);
        return;
    }
    std::vector<pollfd> fds;
    for (const Child &c : children_)
        fds.push_back(pollfd{c.fd, POLLIN, 0});
    const auto waitMs = std::chrono::ceil<std::chrono::milliseconds>(
                            until - Clock::now())
                            .count();
    // EINTR is only an early wake-up.
    ::poll(fds.data(), fds.size(),
           static_cast<int>(std::clamp<long long>(waitMs, 0, INT_MAX)));

    // Pass on everything the child has written so far; false once
    // its pipe is at end of file.
    auto drain = [&](Child &c) {
        char chunk[65536];
        for (;;) {
            const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
            if (n > 0) {
                c.lastOutput = Clock::now();
                onBytes(c.tag, std::string_view(
                                   chunk, static_cast<std::size_t>(n)));
            } else if (n == 0 || errno != EINTR) {
                return n < 0 && errno == EAGAIN;
            }
        }
    };

    std::vector<std::pair<std::size_t, Exit>> exits;
    std::vector<Child> live;
    for (std::size_t k = 0; k < children_.size(); ++k) {
        Child &c = children_[k];
        const bool eof = fds[k].revents != 0 && !drain(c);
        // A child that has exited is reaped even while something it
        // forked still holds its pipe open.
        int status = 0;
        if (reap(c.pid, status, eof ? 0 : WNOHANG) == 0) {
            if (c.silenceSec > 0 && !c.timedOut
                && Clock::now() - c.lastOutput
                       >= toDuration(c.silenceSec)) {
                c.timedOut = true;
                ::kill(c.pid, SIGKILL);
            }
            live.push_back(c);
            continue;
        }
        if (!eof)
            drain(c);
        ::close(c.fd);
        Exit exit;
        if (c.timedOut) {
            exit.why = sim::format("timed out after %.1fs of silence",
                                   c.silenceSec);
        } else if (WIFSIGNALED(status)) {
            exit.why = sim::format("killed by signal %d (%s)",
                                   WTERMSIG(status),
                                   strsignal(WTERMSIG(status)));
        } else {
            exit.code = WEXITSTATUS(status);
            exit.why = sim::format("exited with status %d", exit.code);
        }
        exits.emplace_back(c.tag, std::move(exit));
    }
    children_ = std::move(live);
    for (const auto &[tag, exit] : exits) {
        if (onExit)
            onExit(tag, exit);
    }
}

void
Supervised::signalAll(int sig)
{
    for (const Child &c : children_)
        ::kill(c.pid, sig);
}

void
Supervised::killAll()
{
    for (const Child &c : children_) {
        ::kill(c.pid, SIGKILL);
        ::close(c.fd);
        int status = 0;
        reap(c.pid, status, 0);
    }
    children_.clear();
}

double
Supervised::backoffSec(double baseSec, int n)
{
    return baseSec * static_cast<double>(1 << std::clamp(n, 0, 6));
}

Supervised::Clock::time_point
Supervised::after(double seconds)
{
    return Clock::now() + toDuration(seconds);
}

} // namespace charon::harness
