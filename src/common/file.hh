/**
 * @file
 * RAII ownership of file resources + errno-carrying I/O statuses.
 *
 * Trace I/O moved from fatal-on-error to recoverable Status returns;
 * once an error path can return, a raw FILE* (or POSIX fd) leaks
 * unless every exit closes it. FileHandle and FdHandle close on
 * destruction, so error returns are leak-free by construction.
 *
 * Every file-I/O failure Status built here carries the operation, the
 * path, and the symbolic errno ("open failed: /path (EACCES)") so a
 * sweep summary pinpoints the failing file without a strace session.
 */

#ifndef HETSIM_COMMON_FILE_HH
#define HETSIM_COMMON_FILE_HH

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.hh"

namespace hetsim
{

/** Owning wrapper around std::FILE with fopen/fclose lifetime. */
class FileHandle
{
  public:
    FileHandle() = default;

    /** Takes ownership of an already-open stream (may be null). */
    explicit FileHandle(std::FILE *file) : file_(file) {}

    /** fopen() the path; get() is null on failure (check errno). */
    FileHandle(const std::string &path, const char *mode)
        : file_(std::fopen(path.c_str(), mode))
    {
    }

    ~FileHandle() { reset(); }

    FileHandle(const FileHandle &) = delete;
    FileHandle &operator=(const FileHandle &) = delete;

    FileHandle(FileHandle &&other) noexcept
        : file_(std::exchange(other.file_, nullptr))
    {
    }

    FileHandle &
    operator=(FileHandle &&other) noexcept
    {
        if (this != &other) {
            reset();
            file_ = std::exchange(other.file_, nullptr);
        }
        return *this;
    }

    std::FILE *get() const { return file_; }
    explicit operator bool() const { return file_ != nullptr; }

    /** Close now (also called by the destructor). */
    void
    reset()
    {
        if (file_) {
            std::fclose(file_);
            file_ = nullptr;
        }
    }

    /** Release ownership without closing. */
    std::FILE *release() { return std::exchange(file_, nullptr); }

  private:
    std::FILE *file_ = nullptr;
};

/**
 * Owning wrapper around a POSIX file descriptor (sockets, lock files,
 * O_* opens). Same RAII discipline as FileHandle: an error return can
 * never leak the descriptor.
 */
class FdHandle
{
  public:
    FdHandle() = default;

    /** Takes ownership of an already-open descriptor (may be -1). */
    explicit FdHandle(int fd) : fd_(fd) {}

    ~FdHandle() { reset(); }

    FdHandle(const FdHandle &) = delete;
    FdHandle &operator=(const FdHandle &) = delete;

    FdHandle(FdHandle &&other) noexcept
        : fd_(std::exchange(other.fd_, -1))
    {
    }

    FdHandle &
    operator=(FdHandle &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = std::exchange(other.fd_, -1);
        }
        return *this;
    }

    int get() const { return fd_; }
    explicit operator bool() const { return fd_ >= 0; }

    /** Close now (also called by the destructor). */
    void reset();

    /** Release ownership without closing. */
    int release() { return std::exchange(fd_, -1); }

  private:
    int fd_ = -1;
};

/** Symbolic name of an errno value ("EACCES"); "errno=N" fallback. */
std::string errnoName(int err);

/**
 * Build an IoError Status with operation, path, and errno context:
 * "open failed: /etc/shadow (EACCES)". `err` defaults to the current
 * errno (pass it explicitly if other calls may have clobbered it).
 */
Status ioError(const char *op, const std::string &path, int err);
Status ioError(const char *op, const std::string &path);

/** fopen() with full error context instead of a null handle. */
Result<FileHandle> openFile(const std::string &path, const char *mode);

/** Create or truncate `path` and write all of `bytes` to it. */
Status writeFile(const std::string &path, std::string_view bytes);

/** write(2) all `n` bytes to `fd`, retrying on EINTR; `path` names
 *  the file in the error. */
Status writeAllFd(int fd, const void *data, size_t n,
                  const std::string &path);

/** read(2) `fd` to its end into `out`, retrying on EINTR. */
Status readAllFd(int fd, std::string *out, const std::string &path);

/** Best-effort fsync of directory `dir`, so that a rename into it is
 *  durable. */
void syncDirectory(const std::string &dir);

} // namespace hetsim

#endif // HETSIM_COMMON_FILE_HH
