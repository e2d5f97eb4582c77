#include "common/file.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace hetsim
{

void
FdHandle::reset()
{
    if (fd_ >= 0) {
        // EINTR on close is unrecoverable by retry (POSIX leaves the
        // fd state unspecified); dropping it is the portable choice.
        ::close(fd_);
        fd_ = -1;
    }
}

std::string
errnoName(int err)
{
    switch (err) {
      case EACCES:
        return "EACCES";
      case EAGAIN:
        return "EAGAIN";
      case EADDRINUSE:
        return "EADDRINUSE";
      case EBADF:
        return "EBADF";
      case ECONNREFUSED:
        return "ECONNREFUSED";
      case ECONNRESET:
        return "ECONNRESET";
      case EEXIST:
        return "EEXIST";
      case EFBIG:
        return "EFBIG";
      case EINTR:
        return "EINTR";
      case EINVAL:
        return "EINVAL";
      case EIO:
        return "EIO";
      case EISDIR:
        return "EISDIR";
      case ELOOP:
        return "ELOOP";
      case EMFILE:
        return "EMFILE";
      case ENAMETOOLONG:
        return "ENAMETOOLONG";
      case ENFILE:
        return "ENFILE";
      case ENOENT:
        return "ENOENT";
      case ENOSPC:
        return "ENOSPC";
      case ENOTDIR:
        return "ENOTDIR";
      case ENOTSOCK:
        return "ENOTSOCK";
      case ENXIO:
        return "ENXIO";
      case EPERM:
        return "EPERM";
      case EPIPE:
        return "EPIPE";
      case EROFS:
        return "EROFS";
      case ETIMEDOUT:
        return "ETIMEDOUT";
      case EXDEV:
        return "EXDEV";
      default:
        return "errno=" + std::to_string(err);
    }
}

Status
ioError(const char *op, const std::string &path, int err)
{
    if (err == 0)
        return Status::error(ErrorCode::IoError, "%s: %s", op,
                             path.c_str());
    return Status::error(ErrorCode::IoError, "%s: %s (%s: %s)", op,
                         path.c_str(), errnoName(err).c_str(),
                         std::strerror(err));
}

Status
ioError(const char *op, const std::string &path)
{
    return ioError(op, path, errno);
}

Result<FileHandle>
openFile(const std::string &path, const char *mode)
{
    FileHandle f(path, mode);
    if (!f)
        return ioError("open failed", path, errno);
    return f;
}

Status
writeFile(const std::string &path, std::string_view bytes)
{
    Result<FileHandle> f = openFile(path, "wb");
    if (!f.ok())
        return f.status();
    if (std::fwrite(bytes.data(), 1, bytes.size(), f->get()) !=
        bytes.size())
        return ioError("write failed", path);
    return Status();
}

Status
writeAllFd(int fd, const void *data, size_t n, const std::string &path)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return ioError("write failed", path, errno);
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return Status();
}

Status
readAllFd(int fd, std::string *out, const std::string &path)
{
    char buf[1 << 16];
    out->clear();
    while (true) {
        const ssize_t r = ::read(fd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return ioError("read failed", path, errno);
        }
        if (r == 0)
            return Status();
        out->append(buf, static_cast<size_t>(r));
    }
}

void
syncDirectory(const std::string &dir)
{
    FdHandle d(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
    if (d)
        ::fsync(d.get());
}

} // namespace hetsim
