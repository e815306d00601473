#ifndef TOPK_COMMON_RESOURCE_ARBITER_H_
#define TOPK_COMMON_RESOURCE_ARBITER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"

namespace topk {

/// Process-wide memory pressure, derived from the fraction of the arbiter
/// budget currently leased out. The levels form a degradation ladder:
///
///   kOk    below soft_fraction        normal operation
///   kSoft  [soft_fraction, hard)      consumers shed what they can —
///                                     prefetch windows halve, run
///                                     generators spill early, the
///                                     histogram operator consolidates runs
///   kHard  at/above hard_fraction     *new* leases are refused with
///                                     ResourceExhausted; queries already
///                                     holding leases may still grow them
///                                     up to the full budget and run to
///                                     completion
enum class MemoryPressure { kOk = 0, kSoft = 1, kHard = 2 };

std::string_view MemoryPressureName(MemoryPressure pressure);

/// Deterministic allocation-failure injection, in the FaultProfile style
/// (io/storage_env.h): parsed from --mem-fault-profile or the
/// TOPK_MEM_FAULT environment variable as comma-separated key=value pairs.
///
///   deny=<rate>  probability in [0, 1] that any one grant is denied
///   nth=<n>      deny exactly the nth grant (1-based) the arbiter sees
///   seed=<s>     RNG seed for the probabilistic draw (reproducible)
///   mode=throw   denials throw std::bad_alloc instead of returning a
///                Status — exercises the containment try/catch at operator
///                boundaries exactly like a real allocator failure
///   mode=status  denials surface as Status::OutOfMemory (the default)
struct MemFaultProfile {
  double deny_rate = 0.0;
  uint64_t deny_nth = 0;
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  bool throw_bad_alloc = false;

  bool enabled() const { return deny_rate > 0.0 || deny_nth > 0; }

  static Result<MemFaultProfile> Parse(const std::string& spec);
  std::string ToString() const;
};

class MemoryArbiter;

/// A consumer's reservation against a MemoryArbiter: RAII (releases on
/// destruction), movable, grown and shrunk as the consumer's footprint
/// changes. A default-constructed lease is detached — every operation on it
/// succeeds without touching any arbiter, so call sites need no null
/// checks when running without a budget.
class MemoryLease {
 public:
  MemoryLease() = default;
  ~MemoryLease() { Release(); }

  MemoryLease(const MemoryLease&) = delete;
  MemoryLease& operator=(const MemoryLease&) = delete;
  MemoryLease(MemoryLease&& other) noexcept { *this = std::move(other); }
  MemoryLease& operator=(MemoryLease&& other) noexcept;

  /// Grows the reservation by `bytes`. OutOfMemory on an injected fault,
  /// ResourceExhausted when the arbiter budget cannot cover it.
  Status Grow(size_t bytes);

  /// Grows the reservation (in coarse chunks, so per-row accounting costs
  /// one arbiter round per ~256 KiB, not per row) until it covers at least
  /// `bytes`. No-op when it already does.
  Status EnsureAtLeast(size_t bytes);

  /// Returns `bytes` of the reservation to the arbiter (clamped).
  void Shrink(size_t bytes);

  /// Shrinks the reservation toward `bytes` (rounded up to the chunk
  /// granularity, with two chunks of hysteresis so a footprint oscillating
  /// across a chunk boundary does not churn the arbiter).
  void ShrinkTo(size_t bytes);

  /// Returns the whole reservation and detaches the lease.
  void Release();

  size_t bytes() const { return bytes_; }
  bool attached() const { return arbiter_ != nullptr; }

 private:
  friend class MemoryArbiter;
  MemoryLease(MemoryArbiter* arbiter, std::string tag, size_t bytes)
      : arbiter_(arbiter), tag_(std::move(tag)), bytes_(bytes) {}

  MemoryArbiter* arbiter_ = nullptr;
  std::string tag_;
  size_t bytes_ = 0;
};

/// Process-wide memory admission control: every sizable memory consumer —
/// sort/run-generation buffers, the top-k heaps, the cutoff filter's bucket
/// queue, prefetch windows, double-buffered spill writers — acquires a
/// MemoryLease here instead of trusting only its local constant, so the sum
/// of all "per-component budgets" can no longer silently exceed what the
/// process may use. Generalizes the PrefetchBudget / RetryBudget /
/// SpillQuota singletons into one account (the shape the multi-query server
/// will shard into per-tenant accounts).
///
/// Thread-safe. With budget_bytes == 0 the arbiter only accounts (grants
/// always succeed, pressure stays kOk) — the default for the global
/// instance, so existing callers see no behaviour change until a budget is
/// configured via --mem-budget-mb or Reset().
class MemoryArbiter {
 public:
  struct Options {
    /// Total bytes the arbiter may lease out; 0 = unlimited (accounting
    /// only, no pressure, no denials — injection still applies).
    size_t budget_bytes = 0;
    /// Leased fraction at which pressure turns kSoft (degradation starts).
    double soft_fraction = 0.75;
    /// Leased fraction at which pressure turns kHard (new leases refused).
    double hard_fraction = 0.95;
  };

  MemoryArbiter();  // unlimited: accounting only
  explicit MemoryArbiter(const Options& options);

  MemoryArbiter(const MemoryArbiter&) = delete;
  MemoryArbiter& operator=(const MemoryArbiter&) = delete;

  /// Opens a new lease of `bytes` for the consumer named `tag` (tags show
  /// up in error messages and traces). Refused with ResourceExhausted
  /// naming the arbiter budget under hard pressure or when the budget
  /// cannot cover the bytes; an injected fault surfaces as OutOfMemory (or
  /// throws std::bad_alloc in mode=throw).
  Result<MemoryLease> Acquire(std::string tag, size_t bytes);

  /// Reconfigures the budget and clears counters/peak — the CLI/server
  /// configuration hook, mirroring RetryBudget::Reset. Only call while no
  /// leases are live (live bytes carry over, but the pressure thresholds
  /// are recomputed against the new budget immediately).
  void Reset(size_t budget_bytes);
  void Reset(const Options& options);

  void SetFaultProfile(const MemFaultProfile& profile);
  MemFaultProfile fault_profile() const;

  /// Lock-free pressure poll (one relaxed atomic load) — cheap enough for
  /// per-row checks in run-generation loops and per-block checks in
  /// prefetch readers. Every rung of the degradation ladder polls this.
  MemoryPressure pressure() const {
    return static_cast<MemoryPressure>(
        pressure_level_.load(std::memory_order_relaxed));
  }

  size_t budget_bytes() const;
  size_t granted_bytes() const;
  size_t peak_bytes() const;
  uint64_t grant_count() const;
  uint64_t denial_count() const;
  uint64_t faults_injected() const;

 private:
  friend class MemoryLease;

  /// Both Acquire and MemoryLease::Grow land here. `initial` marks a new
  /// lease (subject to the hard-pressure fail-fast); growth of an existing
  /// lease is only bounded by the full budget, so in-flight queries run to
  /// completion. May throw std::bad_alloc (injection mode=throw).
  Status Grant(const std::string& tag, size_t bytes, bool initial);
  void ReleaseBytes(size_t bytes);

  /// Recomputes the pressure level into *level; true when it moved.
  /// Caller holds mu_.
  bool UpdatePressureLocked(MemoryPressure* level);
  /// Records a transition (gauge, counter, trace instant). Called without
  /// mu_ held.
  void NotifyPressureChange(MemoryPressure level);

  mutable std::mutex mu_;
  Options options_;
  size_t granted_ = 0;
  size_t peak_ = 0;
  uint64_t grants_ = 0;
  uint64_t denials_ = 0;
  uint64_t faults_injected_ = 0;
  MemFaultProfile fault_profile_;
  Random fault_rng_;

  std::atomic<int> pressure_level_{0};
};

/// The process-wide arbiter every consumer falls back to when its options
/// carry no explicit one. Constructed unlimited (accounting only); the
/// TOPK_MEM_FAULT environment variable, when set to a valid profile, arms
/// fault injection at first use. Configure the budget via Reset()
/// (tools/topk_cli --mem-budget-mb).
MemoryArbiter* GlobalMemoryArbiter();

}  // namespace topk

#endif  // TOPK_COMMON_RESOURCE_ARBITER_H_
