#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace exawatt::util {

/// Simulation time: integer seconds since the simulated epoch
/// (2020-01-01 00:00:00, the first day of the paper's measurement year).
/// 2020 is a leap year: 366 days.
using TimeSec = std::int64_t;

inline constexpr TimeSec kSecond = 1;
inline constexpr TimeSec kMinute = 60;
inline constexpr TimeSec kHour = 3600;
inline constexpr TimeSec kDay = 86400;
inline constexpr TimeSec kWeek = 7 * kDay;
inline constexpr int kDaysInYear2020 = 366;
inline constexpr TimeSec kYear = kDaysInYear2020 * kDay;

/// Half-open time interval [begin, end).
struct TimeRange {
  TimeSec begin = 0;
  TimeSec end = 0;

  /// Width of the interval. Computed in unsigned arithmetic so hostile
  /// wire-supplied endpoints (e.g. INT64_MIN..INT64_MAX) are defined
  /// behavior: any range wider than INT64_MAX seconds wraps negative,
  /// which the grid validation guards already reject. Callers must still
  /// check begin <= end — an inverted range can wrap positive.
  [[nodiscard]] TimeSec duration() const {
    return static_cast<TimeSec>(static_cast<std::uint64_t>(end) -
                                static_cast<std::uint64_t>(begin));
  }
  [[nodiscard]] bool contains(TimeSec t) const { return t >= begin && t < end; }
  [[nodiscard]] bool overlaps(const TimeRange& o) const {
    return begin < o.end && o.begin < end;
  }
  /// Intersection; empty (begin==end) when disjoint.
  [[nodiscard]] TimeRange clamp(const TimeRange& o) const;
};

/// Calendar decomposition of a simulated instant (2020 calendar).
struct CalendarDate {
  int month = 1;        ///< 1..12
  int day_of_month = 1; ///< 1..31
  int day_of_year = 0;  ///< 0..365
  int week_of_year = 0; ///< 0..52 (day_of_year / 7)
  int hour = 0;         ///< 0..23
  int minute = 0;
  int second = 0;
};

[[nodiscard]] CalendarDate calendar(TimeSec t);

/// Day-of-year (0-based) for the simulated instant, wrapping multi-year
/// inputs back onto the 2020 calendar.
[[nodiscard]] int day_of_year(TimeSec t);

/// "MM-DD hh:mm:ss" rendering, for reports.
[[nodiscard]] std::string format_time(TimeSec t);

/// True when t falls in the paper's "summer window" used for Figures 11/12
/// (July 24 to Sept 30, 2020).
[[nodiscard]] bool in_summer_window(TimeSec t);

/// Injectable wall-clock seam for timeout/backoff code. Production code
/// takes a `Clock&` (defaulting to `Clock::steady()`); tests install a
/// `ManualClock` so retry policies and I/O delays run deterministically
/// without a single real sleep anywhere in the suite.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Monotonic microseconds; origin is implementation-defined.
  [[nodiscard]] virtual std::int64_t now_us() = 0;
  virtual void sleep_us(std::int64_t us) = 0;

  /// Process-global monotonic clock backed by std::chrono::steady_clock.
  static Clock& steady();
};

/// Test clock: `now_us` advances only through `sleep_us`/`advance_us`,
/// and every sleep is recorded for assertions. `now_us` and `advance_us`
/// may race (a service's workers read the clock while a test advances
/// it); the sleep record is for single-threaded callers.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(std::int64_t start_us = 0) : now_us_(start_us) {}

  [[nodiscard]] std::int64_t now_us() override {
    return now_us_.load(std::memory_order_relaxed);
  }
  void sleep_us(std::int64_t us) override {
    sleeps_.push_back(us);
    advance_us(us);
  }
  void advance_us(std::int64_t us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::int64_t>& sleeps() const {
    return sleeps_;
  }

 private:
  std::atomic<std::int64_t> now_us_;
  std::vector<std::int64_t> sleeps_;
};

}  // namespace exawatt::util
