#ifndef TOPK_IO_STORAGE_ENV_H_
#define TOPK_IO_STORAGE_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "io/io_stats.h"
#include "io/storage_health.h"

namespace topk {

/// Probabilistic fault model for the storage substrate, emulating the
/// failure modes of disaggregated storage (Sec 2.1: every I/O is a network
/// round trip): transient errors that succeed on retry, latency spikes,
/// torn writes, and silent bit flips. All draws come from one deterministic
/// xoshiro256** stream seeded by `seed`, so a single-threaded run replays
/// the exact same fault sequence.
///
/// Fault classification contract:
///   * transient   -> Status::Unavailable (retryable; nothing was written /
///                    read, so a retry is always safe)
///   * torn write  -> a prefix of the block hits storage, the handle is
///                    poisoned, and every later call returns the same
///                    permanent IoError (never retried)
///   * bit flip    -> Read succeeds with one corrupted bit; only checksum
///                    verification can catch it (Corruption, never retried)
///   * latency spike -> the call succeeds after an extra sleep
struct FaultProfile {
  /// Probability that an injectable call fails with Unavailable.
  double transient_fault_rate = 0.0;
  /// Probability that a read/write call sleeps `latency_spike_nanos` extra.
  double latency_spike_rate = 0.0;
  int64_t latency_spike_nanos = 2'000'000;  // 2 ms
  /// Probability that an Append persists only a prefix and poisons the
  /// handle permanently.
  double torn_write_rate = 0.0;
  /// Probability that a Read silently flips one bit of the returned data.
  double bit_flip_rate = 0.0;
  uint64_t seed = 0x5eed;

  bool enabled() const {
    return transient_fault_rate > 0 || latency_spike_rate > 0 ||
           torn_write_rate > 0 || bit_flip_rate > 0;
  }

  /// Parses a `--fault-profile` spec: comma-separated key=value pairs with
  /// keys transient, spike, spike-us, torn, bitflip, seed, e.g.
  ///   "transient=0.01,spike=0.005,spike-us=2000,torn=0.001,seed=7".
  static Result<FaultProfile> Parse(const std::string& spec);

  std::string ToString() const;
};

/// Append-only file handle produced by StorageEnv.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Flush() = 0;
  virtual Status Close() = 0;
};

/// Forward-only file handle produced by StorageEnv.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to `n` bytes into `scratch`; `*bytes_read == 0` at EOF.
  virtual Status Read(size_t n, char* scratch, size_t* bytes_read) = 0;

  /// Skips `n` bytes forward (used by histogram-guided offset seeks).
  virtual Status Skip(uint64_t n) = 0;
};

/// The storage substrate. In F1 Query storage is disaggregated: every I/O is
/// a network round trip plus a storage-service invocation plus a disk access
/// (Sec 2.1 "Late Materialization"). We substitute local files and can
/// optionally inject a fixed latency per read/write call to emulate the
/// round trip; the essential property — sequential spills dominate cost,
/// random I/O is prohibitively expensive — is preserved either way.
///
/// The env also supports failure injection, which the tests use to verify
/// that I/O errors propagate as Status through every operator instead of
/// crashing or corrupting results. Three mechanisms, composable:
///   * Nth-call permanent failures (InjectWriteFailure & friends): the Nth
///     call from now fails with IoError, exactly once. Permanent — the
///     retry layer must surface it, not mask it.
///   * Scripted transient failures (InjectTransientWriteFailures &c.): the
///     next N calls fail with Unavailable, then calls succeed again —
///     deterministic fuel for retry tests.
///   * A probabilistic FaultProfile (SetFaultProfile) driven by the
///     deterministic RNG, covering transients, latency spikes, torn writes
///     and bit flips.
class StorageEnv {
 public:
  struct Options {
    /// Injected latency added to each write / read call (emulates a
    /// disaggregated storage round trip). 0 = plain local I/O.
    int64_t write_latency_nanos = 0;
    int64_t read_latency_nanos = 0;
  };

  StorageEnv() = default;
  explicit StorageEnv(Options options) : options_(options) {}

  StorageEnv(const StorageEnv&) = delete;
  StorageEnv& operator=(const StorageEnv&) = delete;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path);
  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path);

  Status DeleteFile(const std::string& path);
  Status CreateDirs(const std::string& path);
  Result<uint64_t> FileSize(const std::string& path);

  IoStats* stats() { return &stats_; }
  const Options& options() const { return options_; }

  /// Failure injection: the `n`th write Append() from now (1-based) fails
  /// with IoError. 0 disables injection.
  void InjectWriteFailure(uint64_t nth_call) {
    At(fail_at_, Op::kWrite) = nth_call;
  }
  /// Same for reads.
  void InjectReadFailure(uint64_t nth_call) {
    At(fail_at_, Op::kRead) = nth_call;
  }
  /// Same for Flush(), Close(), and DeleteFile() — the calls whose dropped
  /// errors historically hid data loss.
  void InjectFlushFailure(uint64_t nth_call) {
    At(fail_at_, Op::kFlush) = nth_call;
  }
  void InjectCloseFailure(uint64_t nth_call) {
    At(fail_at_, Op::kClose) = nth_call;
  }
  void InjectDeleteFailure(uint64_t nth_call) {
    At(fail_at_, Op::kDelete) = nth_call;
  }

  /// Scripted transient failures: the next `calls` Append() calls fail with
  /// Unavailable (nothing written), then succeed again. Deterministic fuel
  /// for retry tests. Additive with any FaultProfile.
  void InjectTransientWriteFailures(uint64_t calls) {
    At(transient_left_, Op::kWrite) = calls;
  }
  /// Same for reads.
  void InjectTransientReadFailures(uint64_t calls) {
    At(transient_left_, Op::kRead) = calls;
  }

  /// Installs (or, with a default-constructed profile, removes) the
  /// probabilistic fault model. Not thread-safe against in-flight I/O;
  /// install before handing the env to an operator.
  void SetFaultProfile(const FaultProfile& profile);
  const FaultProfile& fault_profile() const { return fault_profile_; }

  /// Installs a StorageHealth circuit breaker over every storage call this
  /// env serves: calls are admission-checked first (failing fast with
  /// Unavailable while the breaker is open) and their outcomes feed the
  /// per-op-class sliding windows. Install before handing the env to an
  /// operator; not thread-safe against in-flight I/O.
  void EnableStorageHealth(const StorageHealth::Options& options);
  /// The installed breaker, or nullptr when disabled.
  StorageHealth* health() { return health_.get(); }

 private:
  friend class LocalWritableFile;
  friend class LocalSequentialFile;

  /// The storage calls, as one table shared by failure injection, the
  /// fault model and the circuit breaker: StorageHealth::OpClass values
  /// index the per-op arrays below.
  using Op = StorageHealth::OpClass;
  using PerOp =
      std::array<std::atomic<uint64_t>, StorageHealth::kNumOpClasses>;
  static std::atomic<uint64_t>& At(PerOp& per_op, Op op) {
    return per_op[static_cast<size_t>(op)];
  }

  /// What the fault model decided for one call.
  enum class FaultAction { kNone, kTransient, kLatencySpike, kTornWrite,
                           kBitFlip };

  /// Returns true when this call should fail (and consumes the trigger).
  bool ShouldFail(Op op);
  /// Consumes one scripted transient failure of `op`, if any are left.
  bool ConsumeTransient(Op op);

  /// Draws this call's fault from the profile (kNone when disabled). Torn
  /// writes are only drawn for kWrite, bit flips only for kRead, latency
  /// spikes only for kWrite/kRead.
  FaultAction DrawFault(Op op);
  /// Uniform value in [0, bound) from the fault RNG (for torn-write prefix
  /// lengths and bit-flip positions).
  uint64_t DrawFaultUint64(uint64_t bound);

  /// Circuit-breaker hooks (no-ops when no breaker is installed).
  Status HealthAllow(Op op);
  void HealthRecord(Op op, const Status& status, int64_t nanos);

  Options options_;
  IoStats stats_;
  /// Nth-call permanent failure per op (0 = none) and the calls seen since
  /// it was armed; scripted transient failures left per op.
  PerOp fail_at_{};
  PerOp calls_seen_{};
  PerOp transient_left_{};

  /// Fault-profile state. The RNG is not thread-safe; the mutex serializes
  /// draws from background I/O threads.
  FaultProfile fault_profile_;
  std::mutex fault_mu_;
  Random fault_rng_;

  /// Optional circuit breaker (EnableStorageHealth).
  std::unique_ptr<StorageHealth> health_;
};

}  // namespace topk

#endif  // TOPK_IO_STORAGE_ENV_H_
