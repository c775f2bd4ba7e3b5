// A test's scratch directory under ::testing::TempDir(), emptied when it is
// made and deleted, with everything in it, when it goes out of scope: a test
// run leaves no segments, manifests or fuzz cases behind.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace wfbn::testing_support {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) / name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }

  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Declare the ScratchDir before anything that writes into it (a durable
  /// store, a writer), so it is deleted after they are gone.
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace wfbn::testing_support
