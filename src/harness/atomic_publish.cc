#include "atomic_publish.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace charon::harness
{

bool
writeAll(int fd, const char *data, std::size_t size)
{
    while (size > 0) {
        ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
atomicPublish(const std::string &path, std::string_view bytes,
              std::string *error)
{
    // Formats errno at the failing call, before cleanup clobbers it.
    auto fail = [&](const char *what) {
        if (error)
            *error = path + ": " + what + ": " + std::strerror(errno);
        return false;
    };
    static std::atomic<unsigned> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid())
                            + "." + std::to_string(serial++);
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                    0644);
    if (fd < 0)
        return fail("cannot create temp file");
    const char *failed = nullptr;
    if (!writeAll(fd, bytes.data(), bytes.size()))
        failed = "cannot write temp file";
    else if (::fsync(fd) != 0)
        failed = "cannot fsync temp file";
    if (failed) {
        fail(failed);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0 || ::rename(tmp.c_str(), path.c_str()) != 0) {
        fail("cannot move temp file into place");
        ::unlink(tmp.c_str());
        return false;
    }
    std::filesystem::path dir = std::filesystem::path(path).parent_path();
    if (dir.empty())
        dir = ".";
    if (int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
        dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

} // namespace charon::harness
