#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace exawatt::qos {

/// Priority classes of the multi-tenant service, ordered best-first.
/// Carried in every request's header as `wire::Request::qos_class`
/// (default kNormal).
enum class Class : std::uint8_t {
  kInteractive = 0,  ///< health checks, dashboards — latency-critical
  kNormal = 1,       ///< ordinary queries (the request default)
  kBatch = 2,        ///< replays, sweeps, compaction — throughput work
};

inline constexpr std::size_t kClassCount = 3;
inline constexpr Class kDefaultClass = Class::kNormal;

[[nodiscard]] const char* class_name(Class c);

/// Wire value -> Class. Any other value demotes to kBatch: a tier this
/// service does not know must never jump the interactive lane.
[[nodiscard]] Class class_from_wire(std::uint32_t v);

struct SchedulerOptions {
  /// Queued items beyond this shed the cheapest-to-refuse (see push).
  std::size_t max_queue = 256;
  /// Estimated-cost backlog cap in microseconds; 0 = count-bounded only.
  /// A queue of 256 pings and a queue of 256 year-long sweeps are very
  /// different promises — this bounds the promise, not the list.
  std::uint64_t max_backlog_cost_us = 0;
  /// DRR quantum: estimated-cost microseconds granted per tenant per
  /// round. Smaller = finer interleave, larger = batchier turns.
  std::uint64_t quantum_us = 2000;
  /// A queued item older than this promotes its class to the front of
  /// the next dispatch regardless of priority — the clock-based half of
  /// starvation freedom.
  std::int64_t promote_after_us = 100'000;
  /// Every Nth pop serves the oldest head across all classes — the
  /// count-based half, so batch drains even when the clock stands still
  /// (ManualClock tests) or interactive load never pauses.
  std::uint64_t promote_stride = 8;
};

/// One admitted unit of work. `run`/`shed` are never invoked by the
/// Scheduler itself — it is a pure synchronized queue; the WorkerPool
/// runs what pop() returns and the service sheds what push() rejects,
/// keeping every callback outside the scheduler lock.
struct Item {
  Class cls = kDefaultClass;
  std::uint64_t tenant = 0;
  std::uint64_t cost_us = 1;   ///< admission-time estimate (CostModel)
  std::int64_t enqueued_us = 0;  ///< stamped by push
  std::uint64_t seq = 0;         ///< admission order, stamped by push
  std::function<void()> run;
  std::function<void()> shed;
};

struct PushResult {
  /// False = the incoming item itself was the cheapest to refuse; it is
  /// returned in `evicted` (the caller still owns its callbacks).
  bool admitted = false;
  /// The item shed to make room (possibly the incoming one). The caller
  /// must invoke its `shed` — outside any scheduler/service lock.
  std::optional<Item> evicted;
};

/// Per-pop class gate computed by the caller from its running mix: the
/// WorkerPool caps concurrent non-interactive work below the worker
/// count so a long replay can never occupy the whole pool and head-of-
/// line-block a ping. Interactive is always allowed.
struct PopLimits {
  bool allow_normal = true;
  bool allow_batch = true;
};

struct SchedulerSnapshot {
  std::size_t queued = 0;
  std::uint64_t backlog_cost_us = 0;  ///< sum of queued cost estimates
  std::int64_t oldest_wait_us = 0;    ///< now - oldest enqueue; 0 if empty
  std::array<std::size_t, kClassCount> queued_by_class{};
};

/// Three priority classes, deficit-round-robin fair queues per tenant
/// inside each class, cost-based shedding, and starvation-proof class
/// promotion. Internally synchronized; deterministic given the sequence
/// of (push, pop, now_us) calls — time is always passed in, never read,
/// so ManualClock tests drive it without a single real sleep.
///
/// Invariants:
///  - Within one (class, tenant) queue, items pop in admission order.
///  - Within one class, DRR bounds any two backlogged tenants' served
///    cost divergence by quantum_us + the largest single item cost.
///  - Across classes, a lower class is served at least once every
///    promote_stride pops and whenever its head is older than
///    promote_after_us — batch always drains.
///  - Shedding removes the worst (class, cost, age) queued item — never
///    anything already running — and never refuses item A to admit a
///    strictly worse item B.
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});

  PushResult push(Item item, std::int64_t now_us);
  [[nodiscard]] std::optional<Item> pop(std::int64_t now_us,
                                        PopLimits limits = {});
  /// Remove everything still queued (shutdown); callers shed the items.
  [[nodiscard]] std::vector<Item> drain_all();
  [[nodiscard]] SchedulerSnapshot snapshot(std::int64_t now_us) const;
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  struct TenantQueue {
    std::deque<Item> items;
    std::uint64_t deficit_us = 0;
    /// Guards against duplicate ring entries when a tenant is shed empty
    /// and re-pushes before the ring catches up; the map entry lives
    /// exactly as long as its ring slot does.
    bool in_ring = false;
  };
  struct ClassState {
    std::map<std::uint64_t, TenantQueue> tenants;
    /// Round-robin ring of tenants with queued work; entries whose queue
    /// emptied are dropped lazily at pop.
    std::deque<std::uint64_t> ring;
    std::size_t queued = 0;
  };

  /// Head age for promotion: enqueue time with admission order as the
  /// tie-break, so same-microsecond arrivals (or a frozen test clock)
  /// still have a well-defined oldest — without the seq, a class whose
  /// head tied on time could dodge stride promotion forever.
  struct HeadKey {
    std::int64_t t = 0;
    std::uint64_t seq = 0;
    [[nodiscard]] bool older_than(const HeadKey& other) const {
      return t < other.t || (t == other.t && seq < other.seq);
    }
  };

  [[nodiscard]] std::optional<Item> pop_class_locked(ClassState& cs);
  /// Oldest head of `cs` by (enqueue time, admission seq); nullopt when
  /// empty.
  [[nodiscard]] std::optional<HeadKey> oldest_head_locked(
      const ClassState& cs) const;

  SchedulerOptions options_;
  mutable std::mutex mu_;
  std::array<ClassState, kClassCount> classes_;
  std::uint64_t seq_ = 0;
  std::uint64_t pops_ = 0;
  std::size_t queued_ = 0;
  std::uint64_t backlog_cost_us_ = 0;
};

}  // namespace exawatt::qos
