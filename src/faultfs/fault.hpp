#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/sim_time.hpp"
#include "util/vfs.hpp"

namespace exawatt::faultfs {

/// Injectable fault classes, mirroring the operational damage the paper's
/// year-long campaign rides through: torn writes on the daily archive,
/// full disks, flipped bits on read-back, stalled I/O and outright
/// collector crashes.
enum class FaultKind : std::uint8_t {
  kFailWrite,   ///< the write-side op throws (transient or permanent)
  kShortWrite,  ///< only the first `arg` bytes reach the file, then throw
  kEnospc,      ///< permanent "no space left on device"
  kCrash,       ///< this and every later write-side op fails — simulated
                ///< process death; reads keep working for the autopsy
  kFailRead,    ///< the read-side op throws (transient or permanent)
  kFlipBit,     ///< flip bit (`arg` % bits) of the bytes returned by a read
  kDelayWrite,  ///< write-side op sleeps `arg` us on the injected clock
  kDelayRead,   ///< read-side op sleeps `arg` us on the injected clock
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// One scripted fault, keyed by the global op counter of its side
/// (write-side ops: create/write/close/rename/remove; read-side ops:
/// map/read_range/read_all). With `repeat`, it fires on every op >= `op`.
struct Fault {
  FaultKind kind = FaultKind::kFailWrite;
  std::uint64_t op = 0;
  std::uint64_t arg = 0;
  bool transient = false;
  bool repeat = false;

  [[nodiscard]] bool matches(std::uint64_t index) const {
    return repeat ? index >= op : index == op;
  }
};

/// A deterministic chaos schedule: an ordered list of faults plus the
/// builder helpers the tests read like a script. Also buildable from a
/// seed (`FaultPlan::random`) for property tests — `describe()` is what
/// gets printed when a randomized run fails, so the failure replays.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& fail_write(std::uint64_t nth, bool transient = false);
  FaultPlan& short_write(std::uint64_t nth, std::uint64_t keep_bytes);
  FaultPlan& enospc_at(std::uint64_t nth);
  FaultPlan& crash_at_write(std::uint64_t nth);
  FaultPlan& fail_read(std::uint64_t nth, bool transient = false);
  FaultPlan& flip_bit_on_read(std::uint64_t nth, std::uint64_t bit);
  /// Flip one bit of every read-side op with index >= `from`.
  FaultPlan& flip_bits_on_reads_from(std::uint64_t from, std::uint64_t bit);
  FaultPlan& delay_write(std::uint64_t nth, std::uint64_t us);
  FaultPlan& delay_read(std::uint64_t nth, std::uint64_t us);

  /// Seeded random read-side plan (flips, read failures, delays) with
  /// `faults` entries over op indices [0, max_op). Read-side only so the
  /// "queries never return wrong values" property is exercised without
  /// also varying what got written.
  [[nodiscard]] static FaultPlan random_reads(std::uint64_t seed,
                                              std::size_t faults,
                                              std::uint64_t max_op);

  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }
  [[nodiscard]] bool empty() const { return faults_.empty(); }
  /// One line per fault — printed on property-test failure for replay.
  [[nodiscard]] std::string describe() const;

 private:
  FaultPlan& add(Fault fault);
  std::vector<Fault> faults_;
};

/// Accounting for one FaultVfs lifetime.
struct FaultStats {
  std::uint64_t write_ops = 0;  ///< create/write/rename/remove seen
  std::uint64_t read_ops = 0;   ///< map/read_range/read_all seen
  std::uint64_t injected = 0;   ///< faults actually fired
};

/// A Vfs decorator that executes a FaultPlan against a base filesystem.
/// Thread-safe: the store's parallel scan fan-out may drive reads from
/// many pool threads at once, and op numbering must stay deterministic
/// for single-threaded schedules (the chaos harness feeds serially).
class FaultVfs final : public util::Vfs {
 public:
  explicit FaultVfs(util::Vfs& base, FaultPlan plan = {},
                    util::Clock* clock = nullptr);

  [[nodiscard]] std::unique_ptr<util::VfsFile> create(
      const std::string& path) override;
  [[nodiscard]] std::vector<std::uint8_t> read_range(
      const std::string& path, std::uint64_t offset,
      std::size_t bytes) override;
  [[nodiscard]] std::vector<std::uint8_t> read_all(
      const std::string& path) override;
  [[nodiscard]] std::uint64_t size(const std::string& path) override;
  [[nodiscard]] bool exists(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void mkdirs(const std::string& path) override;
  [[nodiscard]] std::vector<std::string> list(const std::string& dir) override;
  /// Mapping claims one read-side op: fail-read faults make the map
  /// attempt throw (callers fall back to buffered reads), flip-bit
  /// faults return a mapping backed by a corrupted private copy (so
  /// CRC checks downstream see the damage), delay-read sleeps.
  [[nodiscard]] std::shared_ptr<util::VfsMapping> map(
      const std::string& path) override;

  [[nodiscard]] FaultStats stats() const;
  /// Swap the schedule mid-run (op counters keep counting) — used to arm
  /// read faults only after a store has opened cleanly.
  void set_plan(FaultPlan plan);
  /// The write-side op journal: one "<kind> <path>" line per op, in order.
  /// Chaos harnesses use it to aim a crash at a specific write point
  /// (e.g. the manifest rename) observed in a clean rehearsal run.
  [[nodiscard]] std::vector<std::string> write_journal() const;

 private:
  friend class FaultFile;

  /// Claim the next write-side op index and return the faults due on it.
  [[nodiscard]] std::vector<Fault> next_write_op(const std::string& what);
  [[nodiscard]] std::vector<Fault> next_read_op();
  void apply_write_faults(const std::vector<Fault>& due,
                          const std::string& path);
  /// Applies read faults to `bytes` in place (flips); throws for failures.
  void apply_read_faults(const std::vector<Fault>& due,
                         std::vector<std::uint8_t>& bytes);

  util::Vfs& base_;
  util::Clock* clock_;
  mutable std::mutex mu_;
  FaultPlan plan_;
  FaultStats stats_;
  bool crashed_ = false;
  std::vector<std::string> journal_;
};

}  // namespace exawatt::faultfs
