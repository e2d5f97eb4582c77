/**
 * @file
 * Scratch files for tests that parallel copies of one test binary
 * never share.
 */

#ifndef HETSIM_TESTS_TEMP_FILE_HH
#define HETSIM_TESTS_TEMP_FILE_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

namespace hetsim::test
{

/**
 * A file path under testing::TempDir() carrying this process's id, so
 * two copies of a test binary running at once write different files.
 * The file is removed when the object goes out of scope, also when an
 * assertion ends the test early.
 */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(testing::TempDir() + "hetsim_" +
                std::to_string(::getpid()) + "_" + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace hetsim::test

#endif // HETSIM_TESTS_TEMP_FILE_HH
