#include "io/storage_env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"

namespace topk {

namespace {

// Per-call storage latency distributions (p50/p95/p99 in the metrics
// export). Recorded per block, not per row — cheap relative to the I/O.
ObsHistogram& WriteLatencyHistogram() {
  static ObsHistogram histogram("storage.write_nanos");
  return histogram;
}
ObsHistogram& ReadLatencyHistogram() {
  static ObsHistogram histogram("storage.read_nanos");
  return histogram;
}

// Injected-fault counters, by kind. Exported so a test (or an operator
// dashboard) can confirm the profile actually fired.
ObsCounter& TransientFaultCounter() {
  static ObsCounter counter("storage.fault.transient");
  return counter;
}
ObsCounter& LatencySpikeCounter() {
  static ObsCounter counter("storage.fault.latency_spike");
  return counter;
}
ObsCounter& TornWriteCounter() {
  static ObsCounter counter("storage.fault.torn_write");
  return counter;
}
ObsCounter& BitFlipCounter() {
  static ObsCounter counter("storage.fault.bit_flip");
  return counter;
}

void MaybeSleep(int64_t nanos) {
  if (nanos > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
  }
}

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + std::strerror(errno);
}

}  // namespace

Result<FaultProfile> FaultProfile::Parse(const std::string& spec) {
  FaultProfile profile;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string pair = spec.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault profile entry '" + pair +
                                     "' is not key=value");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    char* parse_end = nullptr;
    const double number = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument("bad fault profile value '" + value +
                                     "' for key '" + key + "'");
    }
    if (key == "transient" || key == "spike" || key == "torn" ||
        key == "bitflip") {
      if (number < 0.0 || number > 1.0) {
        return Status::InvalidArgument("fault rate '" + key +
                                       "' must be in [0, 1]");
      }
      if (key == "transient") profile.transient_fault_rate = number;
      if (key == "spike") profile.latency_spike_rate = number;
      if (key == "torn") profile.torn_write_rate = number;
      if (key == "bitflip") profile.bit_flip_rate = number;
    } else if (key == "spike-us") {
      if (number < 0) {
        return Status::InvalidArgument("spike-us must be >= 0");
      }
      profile.latency_spike_nanos = static_cast<int64_t>(number * 1000.0);
    } else if (key == "seed") {
      profile.seed = static_cast<uint64_t>(number);
    } else {
      return Status::InvalidArgument("unknown fault profile key '" + key +
                                     "'");
    }
  }
  return profile;
}

std::string FaultProfile::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "transient=%g,spike=%g,spike-us=%lld,torn=%g,bitflip=%g,"
                "seed=%llu",
                transient_fault_rate, latency_spike_rate,
                static_cast<long long>(latency_spike_nanos / 1000),
                torn_write_rate, bit_flip_rate,
                static_cast<unsigned long long>(seed));
  return buf;
}

void StorageEnv::SetFaultProfile(const FaultProfile& profile) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  fault_profile_ = profile;
  fault_rng_ = Random(profile.seed);
}

void StorageEnv::EnableStorageHealth(const StorageHealth::Options& options) {
  health_ = std::make_unique<StorageHealth>(options);
}

Status StorageEnv::HealthAllow(Op op) {
  if (health_ == nullptr) return Status::OK();
  return health_->AllowRequest(op);
}

void StorageEnv::HealthRecord(Op op, const Status& status, int64_t nanos) {
  if (health_ == nullptr) return;
  health_->RecordOutcome(op, status, nanos);
}

StorageEnv::FaultAction StorageEnv::DrawFault(Op op) {
  if (!fault_profile_.enabled()) return FaultAction::kNone;
  std::lock_guard<std::mutex> lock(fault_mu_);
  // One draw per call, mapped onto the cumulative rate ranges so the
  // categories are mutually exclusive and the sequence is reproducible.
  const double u = fault_rng_.NextDouble();
  double threshold = fault_profile_.transient_fault_rate;
  if (u < threshold) {
    TransientFaultCounter().Add(1);
    return FaultAction::kTransient;
  }
  if (op == Op::kWrite) {
    threshold += fault_profile_.torn_write_rate;
    if (u < threshold) {
      TornWriteCounter().Add(1);
      return FaultAction::kTornWrite;
    }
  }
  if (op == Op::kRead) {
    threshold += fault_profile_.bit_flip_rate;
    if (u < threshold) {
      BitFlipCounter().Add(1);
      return FaultAction::kBitFlip;
    }
  }
  if (op == Op::kWrite || op == Op::kRead) {
    threshold += fault_profile_.latency_spike_rate;
    if (u < threshold) {
      LatencySpikeCounter().Add(1);
      return FaultAction::kLatencySpike;
    }
  }
  return FaultAction::kNone;
}

uint64_t StorageEnv::DrawFaultUint64(uint64_t bound) {
  std::lock_guard<std::mutex> lock(fault_mu_);
  return fault_rng_.NextUint64(bound);
}

class LocalWritableFile : public WritableFile {
 public:
  LocalWritableFile(std::FILE* file, std::string path, StorageEnv* env)
      : file_(file), path_(std::move(path)), env_(env) {}

  ~LocalWritableFile() override {
    if (file_ == nullptr) return;
    if (std::fclose(file_) != 0) {
      TOPK_LOG(Warning) << "close failed in destructor for " << path_ << ": "
                        << std::strerror(errno);
    }
  }

  Status Append(std::string_view data) override {
    Status admit = env_->HealthAllow(StorageEnv::Op::kWrite);
    if (!admit.ok()) return admit;
    Stopwatch health_watch;
    Status status = AppendImpl(data);
    env_->HealthRecord(StorageEnv::Op::kWrite, status,
                       health_watch.ElapsedNanos());
    return status;
  }

  Status Flush() override {
    Status admit = env_->HealthAllow(StorageEnv::Op::kFlush);
    if (!admit.ok()) return admit;
    Stopwatch health_watch;
    Status status = FlushImpl();
    env_->HealthRecord(StorageEnv::Op::kFlush, status,
                       health_watch.ElapsedNanos());
    return status;
  }

  Status Close() override {
    Status admit = env_->HealthAllow(StorageEnv::Op::kClose);
    if (!admit.ok()) return admit;
    Stopwatch health_watch;
    Status status = CloseImpl();
    env_->HealthRecord(StorageEnv::Op::kClose, status,
                       health_watch.ElapsedNanos());
    return status;
  }

 private:
  Status AppendImpl(std::string_view data) {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("append to closed file " + path_);
    }
    if (!poisoned_.ok()) return poisoned_;
    if (env_->ShouldFail(StorageEnv::Op::kWrite)) {
      return Status::IoError("injected write failure on " + path_);
    }
    // Transient failures fire before any byte reaches storage, so a retry
    // of the same Append is always safe on this append-only format.
    if (env_->ConsumeTransient(StorageEnv::Op::kWrite)) {
      return Status::Unavailable("injected transient write failure on " +
                                 path_);
    }
    const StorageEnv::FaultAction fault =
        env_->DrawFault(StorageEnv::Op::kWrite);
    if (fault == StorageEnv::FaultAction::kTransient) {
      return Status::Unavailable("transient write fault on " + path_);
    }
    Stopwatch watch;
    MaybeSleep(env_->options().write_latency_nanos);
    if (fault == StorageEnv::FaultAction::kLatencySpike) {
      MaybeSleep(env_->fault_profile().latency_spike_nanos);
    }
    if (fault == StorageEnv::FaultAction::kTornWrite && !data.empty()) {
      // A prefix lands on storage, then the handle dies. Permanent: a
      // retry would duplicate the prefix, so this must never be retried.
      const size_t prefix =
          static_cast<size_t>(env_->DrawFaultUint64(data.size()));
      if (prefix > 0) {
        const size_t written =
            std::fwrite(data.data(), 1, prefix, file_);
        env_->stats()->RecordWrite(written, watch.ElapsedNanos());
      }
      poisoned_ = Status::IoError(
          "torn write on " + path_ + ": connection lost after " +
          std::to_string(prefix) + " of " + std::to_string(data.size()) +
          " bytes");
      return poisoned_;
    }
    const size_t written = std::fwrite(data.data(), 1, data.size(), file_);
    if (written != data.size()) {
      return Status::IoError(ErrnoMessage("short write to " + path_));
    }
    const int64_t nanos = watch.ElapsedNanos();
    env_->stats()->RecordWrite(data.size(), nanos);
    WriteLatencyHistogram().Record(nanos);
    ObsRecordStorageWrite(data.size(), nanos);
    return Status::OK();
  }

  Status FlushImpl() {
    if (file_ == nullptr) {
      return Status::FailedPrecondition("flush of closed file " + path_);
    }
    if (!poisoned_.ok()) return poisoned_;
    if (env_->ShouldFail(StorageEnv::Op::kFlush)) {
      return Status::IoError("injected flush failure on " + path_);
    }
    if (env_->DrawFault(StorageEnv::Op::kFlush) ==
        StorageEnv::FaultAction::kTransient) {
      return Status::Unavailable("transient flush fault on " + path_);
    }
    if (std::fflush(file_) != 0) {
      return Status::IoError(ErrnoMessage("flush failed for " + path_));
    }
    return Status::OK();
  }

  Status CloseImpl() {
    if (file_ == nullptr) return Status::OK();
    if (env_->ShouldFail(StorageEnv::Op::kClose)) {
      return Status::IoError("injected close failure on " + path_);
    }
    if (env_->DrawFault(StorageEnv::Op::kClose) ==
        StorageEnv::FaultAction::kTransient) {
      // The handle stays open: a retried Close can still succeed.
      return Status::Unavailable("transient close fault on " + path_);
    }
    const int rc = std::fclose(file_);
    file_ = nullptr;
    if (!poisoned_.ok()) return poisoned_;
    if (rc != 0) {
      return Status::IoError(ErrnoMessage("close failed for " + path_));
    }
    return Status::OK();
  }

  std::FILE* file_;
  std::string path_;
  StorageEnv* env_;
  /// Set by a torn write; every later call returns it (permanent).
  Status poisoned_;
};

class LocalSequentialFile : public SequentialFile {
 public:
  LocalSequentialFile(std::FILE* file, std::string path, StorageEnv* env)
      : file_(file), path_(std::move(path)), env_(env) {}

  ~LocalSequentialFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Read(size_t n, char* scratch, size_t* bytes_read) override {
    Status admit = env_->HealthAllow(StorageEnv::Op::kRead);
    if (!admit.ok()) {
      *bytes_read = 0;
      return admit;
    }
    Stopwatch health_watch;
    Status status = ReadImpl(n, scratch, bytes_read);
    env_->HealthRecord(StorageEnv::Op::kRead, status,
                       health_watch.ElapsedNanos());
    return status;
  }

 private:
  Status ReadImpl(size_t n, char* scratch, size_t* bytes_read) {
    *bytes_read = 0;
    if (env_->ShouldFail(StorageEnv::Op::kRead)) {
      return Status::IoError("injected read failure on " + path_);
    }
    // Transient failures fire before the file position advances, so a
    // retried Read resumes exactly where the failed one would have.
    if (env_->ConsumeTransient(StorageEnv::Op::kRead)) {
      return Status::Unavailable("injected transient read failure on " +
                                 path_);
    }
    const StorageEnv::FaultAction fault =
        env_->DrawFault(StorageEnv::Op::kRead);
    if (fault == StorageEnv::FaultAction::kTransient) {
      return Status::Unavailable("transient read fault on " + path_);
    }
    Stopwatch watch;
    MaybeSleep(env_->options().read_latency_nanos);
    if (fault == StorageEnv::FaultAction::kLatencySpike) {
      MaybeSleep(env_->fault_profile().latency_spike_nanos);
    }
    const size_t got = std::fread(scratch, 1, n, file_);
    if (got < n && std::ferror(file_)) {
      return Status::IoError(ErrnoMessage("read failed for " + path_));
    }
    if (fault == StorageEnv::FaultAction::kBitFlip && got > 0) {
      // Silent corruption: the read "succeeds". Only checksum verification
      // downstream can catch this.
      const uint64_t bit = env_->DrawFaultUint64(got * 8);
      scratch[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    }
    *bytes_read = got;
    const int64_t nanos = watch.ElapsedNanos();
    env_->stats()->RecordRead(got, nanos);
    ReadLatencyHistogram().Record(nanos);
    ObsRecordStorageRead(got, nanos);
    return Status::OK();
  }

 public:
  Status Skip(uint64_t n) override {
    if (std::fseek(file_, static_cast<long>(n), SEEK_CUR) != 0) {
      return Status::IoError(ErrnoMessage("seek failed for " + path_));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
  StorageEnv* env_;
};

bool StorageEnv::ShouldFail(Op op) {
  std::atomic<uint64_t>& fail_at = At(fail_at_, op);
  std::atomic<uint64_t>& calls_seen = At(calls_seen_, op);
  const uint64_t target = fail_at.load(std::memory_order_relaxed);
  if (target == 0) return false;
  const uint64_t seen = calls_seen.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seen == target) {
    fail_at.store(0, std::memory_order_relaxed);
    calls_seen.store(0, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool StorageEnv::ConsumeTransient(Op op) {
  std::atomic<uint64_t>& left = At(transient_left_, op);
  uint64_t current = left.load(std::memory_order_relaxed);
  while (current > 0) {
    if (left.compare_exchange_weak(current, current - 1,
                                   std::memory_order_relaxed)) {
      TransientFaultCounter().Add(1);
      return true;
    }
  }
  return false;
}

Result<std::unique_ptr<WritableFile>> StorageEnv::NewWritableFile(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(ErrnoMessage("cannot create " + path));
  }
  stats_.RecordFileCreated();
  return std::unique_ptr<WritableFile>(
      new LocalWritableFile(file, path, this));
}

Result<std::unique_ptr<SequentialFile>> StorageEnv::NewSequentialFile(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError(ErrnoMessage("cannot open " + path));
  }
  return std::unique_ptr<SequentialFile>(
      new LocalSequentialFile(file, path, this));
}

Status StorageEnv::DeleteFile(const std::string& path) {
  Status admit = HealthAllow(Op::kDelete);
  if (!admit.ok()) return admit;
  Stopwatch health_watch;
  Status status = [&]() -> Status {
    if (ShouldFail(Op::kDelete)) {
      return Status::IoError("injected delete failure on " + path);
    }
    if (DrawFault(Op::kDelete) == FaultAction::kTransient) {
      return Status::Unavailable("transient delete fault on " + path);
    }
    std::error_code ec;
    if (!std::filesystem::remove(path, ec)) {
      if (ec) {
        return Status::IoError("cannot delete " + path + ": " + ec.message());
      }
      return Status::NotFound("no such file: " + path);
    }
    stats_.RecordFileDeleted();
    return Status::OK();
  }();
  HealthRecord(Op::kDelete, status, health_watch.ElapsedNanos());
  return status;
}

Status StorageEnv::CreateDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IoError("cannot create directory " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<uint64_t> StorageEnv::FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status::IoError("cannot stat " + path + ": " + ec.message());
  }
  return static_cast<uint64_t>(size);
}

}  // namespace topk
