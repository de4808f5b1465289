#include "faultfs/fault.hpp"

#include <algorithm>
#include <sstream>

#include "util/rng.hpp"

namespace exawatt::faultfs {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFailWrite: return "fail-write";
    case FaultKind::kShortWrite: return "short-write";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kFailRead: return "fail-read";
    case FaultKind::kFlipBit: return "flip-bit";
    case FaultKind::kDelayWrite: return "delay-write";
    case FaultKind::kDelayRead: return "delay-read";
  }
  return "?";
}

// -------------------------------------------------------------- FaultPlan

FaultPlan& FaultPlan::add(Fault fault) {
  faults_.push_back(fault);
  return *this;
}

FaultPlan& FaultPlan::fail_write(std::uint64_t nth, bool transient) {
  return add({FaultKind::kFailWrite, nth, 0, transient, false});
}

FaultPlan& FaultPlan::short_write(std::uint64_t nth,
                                  std::uint64_t keep_bytes) {
  return add({FaultKind::kShortWrite, nth, keep_bytes, false, false});
}

FaultPlan& FaultPlan::enospc_at(std::uint64_t nth) {
  return add({FaultKind::kEnospc, nth, 0, false, false});
}

FaultPlan& FaultPlan::crash_at_write(std::uint64_t nth) {
  return add({FaultKind::kCrash, nth, 0, false, false});
}

FaultPlan& FaultPlan::fail_read(std::uint64_t nth, bool transient) {
  return add({FaultKind::kFailRead, nth, 0, transient, false});
}

FaultPlan& FaultPlan::flip_bit_on_read(std::uint64_t nth, std::uint64_t bit) {
  return add({FaultKind::kFlipBit, nth, bit, false, false});
}

FaultPlan& FaultPlan::flip_bits_on_reads_from(std::uint64_t from,
                                              std::uint64_t bit) {
  return add({FaultKind::kFlipBit, from, bit, false, true});
}

FaultPlan& FaultPlan::delay_write(std::uint64_t nth, std::uint64_t us) {
  return add({FaultKind::kDelayWrite, nth, us, false, false});
}

FaultPlan& FaultPlan::delay_read(std::uint64_t nth, std::uint64_t us) {
  return add({FaultKind::kDelayRead, nth, us, false, false});
}

FaultPlan FaultPlan::random_reads(std::uint64_t seed, std::size_t faults,
                                  std::uint64_t max_op) {
  util::Rng rng(seed);
  FaultPlan plan;
  for (std::size_t i = 0; i < faults; ++i) {
    const std::uint64_t op = rng.uniform_index(max_op);
    const double pick = rng.uniform();
    if (pick < 0.5) {
      plan.flip_bit_on_read(op, rng.uniform_index(1 << 16));
    } else if (pick < 0.8) {
      plan.fail_read(op, rng.chance(0.5));
    } else {
      plan.delay_read(op, rng.uniform_index(5'000));
    }
  }
  return plan;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  for (const auto& f : faults_) {
    os << fault_kind_name(f.kind) << " op=" << f.op;
    if (f.repeat) os << "+";
    if (f.arg != 0) os << " arg=" << f.arg;
    if (f.transient) os << " transient";
    os << '\n';
  }
  return os.str();
}

// --------------------------------------------------------------- FaultVfs

/// Write-side decorator: every write/close claims a write op on the
/// owning FaultVfs, so a plan can hit "the 3rd write of the 2nd segment"
/// no matter which file object issues it.
class FaultFile final : public util::VfsFile {
 public:
  FaultFile(FaultVfs& owner, std::string path,
            std::unique_ptr<util::VfsFile> base)
      : owner_(owner), path_(std::move(path)), base_(std::move(base)) {}

  void write(std::span<const std::uint8_t> bytes) override;
  void close() override;

 private:
  FaultVfs& owner_;
  std::string path_;
  std::unique_ptr<util::VfsFile> base_;
};

FaultVfs::FaultVfs(util::Vfs& base, FaultPlan plan, util::Clock* clock)
    : base_(base),
      clock_(clock != nullptr ? clock : &util::Clock::steady()),
      plan_(std::move(plan)) {}

FaultStats FaultVfs::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void FaultVfs::set_plan(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
}

std::vector<std::string> FaultVfs::write_journal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_;
}

std::vector<Fault> FaultVfs::next_write_op(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = stats_.write_ops++;
  journal_.push_back(what);
  std::vector<Fault> due;
  if (crashed_) {
    due.push_back({FaultKind::kCrash, index, 0, false, true});
    return due;
  }
  for (const auto& f : plan_.faults()) {
    if (f.kind == FaultKind::kFailRead || f.kind == FaultKind::kFlipBit ||
        f.kind == FaultKind::kDelayRead) {
      continue;
    }
    if (f.matches(index)) due.push_back(f);
  }
  stats_.injected += due.size();
  return due;
}

std::vector<Fault> FaultVfs::next_read_op() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t index = stats_.read_ops++;
  std::vector<Fault> due;
  for (const auto& f : plan_.faults()) {
    if (f.kind != FaultKind::kFailRead && f.kind != FaultKind::kFlipBit &&
        f.kind != FaultKind::kDelayRead) {
      continue;
    }
    if (f.matches(index)) due.push_back(f);
  }
  stats_.injected += due.size();
  return due;
}

void FaultVfs::apply_write_faults(const std::vector<Fault>& due,
                                  const std::string& path) {
  for (const auto& f : due) {
    switch (f.kind) {
      case FaultKind::kDelayWrite:
        clock_->sleep_us(static_cast<std::int64_t>(f.arg));
        break;
      case FaultKind::kCrash: {
        {
          std::lock_guard<std::mutex> lock(mu_);
          crashed_ = true;
        }
        throw util::VfsError("faultfs: simulated crash at " + path);
      }
      case FaultKind::kEnospc:
        throw util::VfsError("faultfs: no space left on device: " + path);
      case FaultKind::kFailWrite:
      case FaultKind::kShortWrite:  // the short prefix is handled by caller
        throw util::VfsError("faultfs: injected write failure: " + path,
                             f.transient);
      case FaultKind::kFailRead:
      case FaultKind::kFlipBit:
      case FaultKind::kDelayRead:
        break;
    }
  }
}

void FaultVfs::apply_read_faults(const std::vector<Fault>& due,
                                 std::vector<std::uint8_t>& bytes) {
  for (const auto& f : due) {
    switch (f.kind) {
      case FaultKind::kDelayRead:
        clock_->sleep_us(static_cast<std::int64_t>(f.arg));
        break;
      case FaultKind::kFlipBit:
        if (!bytes.empty()) {
          const std::uint64_t bit = f.arg % (bytes.size() * 8);
          bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      default:
        break;
    }
  }
}

void FaultFile::write(std::span<const std::uint8_t> bytes) {
  const auto due = owner_.next_write_op("write " + path_);
  // A scripted short write persists a prefix before the failure surfaces —
  // the torn-write shape a crash leaves on a real disk.
  for (const auto& f : due) {
    if (f.kind == FaultKind::kShortWrite) {
      const std::size_t keep =
          std::min<std::size_t>(bytes.size(), static_cast<std::size_t>(f.arg));
      base_->write(bytes.subspan(0, keep));
    }
  }
  owner_.apply_write_faults(due, path_);
  base_->write(bytes);
}

void FaultFile::close() {
  const auto due = owner_.next_write_op("close " + path_);
  owner_.apply_write_faults(due, path_);
  base_->close();
}

std::unique_ptr<util::VfsFile> FaultVfs::create(const std::string& path) {
  const auto due = next_write_op("create " + path);
  apply_write_faults(due, path);
  return std::make_unique<FaultFile>(*this, path, base_.create(path));
}

std::vector<std::uint8_t> FaultVfs::read_range(const std::string& path,
                                               std::uint64_t offset,
                                               std::size_t bytes) {
  const auto due = next_read_op();
  for (const auto& f : due) {
    if (f.kind == FaultKind::kFailRead) {
      throw util::VfsError("faultfs: injected read failure: " + path,
                           f.transient);
    }
  }
  auto out = base_.read_range(path, offset, bytes);
  apply_read_faults(due, out);
  return out;
}

std::vector<std::uint8_t> FaultVfs::read_all(const std::string& path) {
  const auto due = next_read_op();
  for (const auto& f : due) {
    if (f.kind == FaultKind::kFailRead) {
      throw util::VfsError("faultfs: injected read failure: " + path,
                           f.transient);
    }
  }
  auto out = base_.read_all(path);
  apply_read_faults(due, out);
  return out;
}

namespace {

// A mapping backed by an owned byte vector — used when a read fault
// corrupted the mapped view, so the damage stays private to this
// mapping and never touches the base file or other readers.
class CopyMapping final : public util::VfsMapping {
 public:
  explicit CopyMapping(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}
  [[nodiscard]] std::span<const std::uint8_t> bytes() const override {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

std::shared_ptr<util::VfsMapping> FaultVfs::map(const std::string& path) {
  const auto due = next_read_op();
  for (const auto& f : due) {
    if (f.kind == FaultKind::kFailRead) {
      throw util::VfsError("faultfs: injected map failure: " + path,
                           f.transient);
    }
  }
  for (const auto& f : due) {
    if (f.kind == FaultKind::kDelayRead) {
      clock_->sleep_us(static_cast<std::int64_t>(f.arg));
    }
  }
  auto mapping = base_.map(path);
  if (mapping == nullptr) return nullptr;
  const bool flips = std::any_of(
      due.begin(), due.end(),
      [](const Fault& f) { return f.kind == FaultKind::kFlipBit; });
  if (flips) {
    const auto view = mapping->bytes();
    std::vector<std::uint8_t> copy(view.begin(), view.end());
    apply_read_faults(due, copy);
    return std::make_shared<CopyMapping>(std::move(copy));
  }
  return mapping;
}

std::uint64_t FaultVfs::size(const std::string& path) {
  return base_.size(path);
}

bool FaultVfs::exists(const std::string& path) { return base_.exists(path); }

void FaultVfs::rename(const std::string& from, const std::string& to) {
  const auto due = next_write_op("rename " + from + " -> " + to);
  apply_write_faults(due, from);
  base_.rename(from, to);
}

void FaultVfs::remove(const std::string& path) {
  const auto due = next_write_op("remove " + path);
  apply_write_faults(due, path);
  base_.remove(path);
}

void FaultVfs::mkdirs(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) {
      throw util::VfsError("faultfs: simulated crash at " + path);
    }
  }
  base_.mkdirs(path);
}

std::vector<std::string> FaultVfs::list(const std::string& dir) {
  return base_.list(dir);
}

}  // namespace exawatt::faultfs
