#pragma once

// The buffered read tier on demand: the real filesystem with mapping
// refused. Segment readers map their file through `Vfs::map()` whenever
// the Vfs allows it; this one keeps the base `Vfs::map()` default
// (unsupported), so every store, reader or FaultVfs stacked on it
// validates segments and reads blocks through `read_range` — the
// fallback a failed map takes in production. Header only and gtest-free,
// so benches can build their buffered side with it.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/vfs.hpp"

namespace exawatt::e2e {

class UnmappedVfs final : public util::Vfs {
 public:
  [[nodiscard]] std::unique_ptr<util::VfsFile> create(
      const std::string& path) override {
    return base_.create(path);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_range(
      const std::string& path, std::uint64_t offset,
      std::size_t bytes) override {
    return base_.read_range(path, offset, bytes);
  }
  [[nodiscard]] std::vector<std::uint8_t> read_all(
      const std::string& path) override {
    return base_.read_all(path);
  }
  [[nodiscard]] std::uint64_t size(const std::string& path) override {
    return base_.size(path);
  }
  [[nodiscard]] bool exists(const std::string& path) override {
    return base_.exists(path);
  }
  void rename(const std::string& from, const std::string& to) override {
    base_.rename(from, to);
  }
  void remove(const std::string& path) override { base_.remove(path); }
  void mkdirs(const std::string& path) override { base_.mkdirs(path); }
  [[nodiscard]] std::vector<std::string> list(const std::string& dir) override {
    return base_.list(dir);
  }

 private:
  util::Vfs& base_ = util::Vfs::real();
};

}  // namespace exawatt::e2e
