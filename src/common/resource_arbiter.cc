#include "common/resource_arbiter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/logging.h"
#include "obs/obs_context.h"
#include "obs/trace.h"

namespace topk {

namespace {

/// Leases grow in coarse chunks so per-row accounting (EnsureAtLeast on
/// every buffered row) costs one arbiter mutex round per chunk, not per
/// row.
constexpr size_t kLeaseChunkBytes = 256 * 1024;

// mem.arbiter.* metrics: resolved once globally, and each event also lands
// in the current query's scoped registry when one is installed (the
// ObsCounter/ObsGauge dual-recording contract).
ObsCounter& GrantsCounter() {
  static ObsCounter counter("mem.arbiter.grants");
  return counter;
}
ObsCounter& DenialsCounter() {
  static ObsCounter counter("mem.arbiter.denials");
  return counter;
}
ObsCounter& FaultsInjectedCounter() {
  static ObsCounter counter("mem.arbiter.faults_injected");
  return counter;
}
ObsCounter& PressureTransitionsCounter() {
  static ObsCounter counter("mem.arbiter.pressure_transitions");
  return counter;
}
ObsGauge& GrantedBytesGauge() {
  static ObsGauge gauge("mem.arbiter.granted_bytes");
  return gauge;
}
ObsGauge& PeakBytesGauge() {
  static ObsGauge gauge("mem.arbiter.peak_bytes");
  return gauge;
}
ObsGauge& PressureLevelGauge() {
  static ObsGauge gauge("mem.arbiter.pressure_level");
  return gauge;
}

}  // namespace

std::string_view MemoryPressureName(MemoryPressure pressure) {
  switch (pressure) {
    case MemoryPressure::kOk:
      return "ok";
    case MemoryPressure::kSoft:
      return "soft";
    case MemoryPressure::kHard:
      return "hard";
  }
  return "unknown";
}

Result<MemFaultProfile> MemFaultProfile::Parse(const std::string& spec) {
  MemFaultProfile profile;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string pair = spec.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("mem fault profile entry '" + pair +
                                     "' is not key=value");
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "mode") {
      if (value == "throw") {
        profile.throw_bad_alloc = true;
      } else if (value == "status") {
        profile.throw_bad_alloc = false;
      } else {
        return Status::InvalidArgument(
            "mem fault profile mode must be 'throw' or 'status', got '" +
            value + "'");
      }
      continue;
    }
    char* parse_end = nullptr;
    const double number = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') {
      return Status::InvalidArgument("bad mem fault profile value '" + value +
                                     "' for key '" + key + "'");
    }
    if (key == "deny") {
      if (number < 0.0 || number > 1.0) {
        return Status::InvalidArgument("deny rate must be in [0, 1]");
      }
      profile.deny_rate = number;
    } else if (key == "nth") {
      if (number < 0) {
        return Status::InvalidArgument("nth must be >= 0");
      }
      profile.deny_nth = static_cast<uint64_t>(number);
    } else if (key == "seed") {
      profile.seed = static_cast<uint64_t>(number);
    } else {
      return Status::InvalidArgument("unknown mem fault profile key '" + key +
                                     "'");
    }
  }
  return profile;
}

std::string MemFaultProfile::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "deny=%g,nth=%llu,seed=%llu,mode=%s",
                deny_rate, static_cast<unsigned long long>(deny_nth),
                static_cast<unsigned long long>(seed),
                throw_bad_alloc ? "throw" : "status");
  return buf;
}

MemoryLease& MemoryLease::operator=(MemoryLease&& other) noexcept {
  if (this != &other) {
    Release();
    arbiter_ = other.arbiter_;
    tag_ = std::move(other.tag_);
    bytes_ = other.bytes_;
    other.arbiter_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

Status MemoryLease::Grow(size_t bytes) {
  if (arbiter_ == nullptr || bytes == 0) return Status::OK();
  TOPK_RETURN_NOT_OK(arbiter_->Grant(tag_, bytes, /*initial=*/false));
  bytes_ += bytes;
  return Status::OK();
}

Status MemoryLease::EnsureAtLeast(size_t bytes) {
  if (arbiter_ == nullptr || bytes <= bytes_) return Status::OK();
  const size_t needed = bytes - bytes_;
  const size_t chunked =
      ((needed + kLeaseChunkBytes - 1) / kLeaseChunkBytes) * kLeaseChunkBytes;
  return Grow(chunked);
}

void MemoryLease::ShrinkTo(size_t bytes) {
  if (arbiter_ == nullptr) return;
  const size_t target =
      ((bytes + kLeaseChunkBytes - 1) / kLeaseChunkBytes) * kLeaseChunkBytes;
  // Two chunks of hysteresis: a footprint oscillating across one chunk
  // boundary (EnsureAtLeast overshoots by a chunk, the next spill takes it
  // back — replacement selection's steady state) must not cost two arbiter
  // rounds per row.
  if (bytes_ >= target + 2 * kLeaseChunkBytes) Shrink(bytes_ - target);
}

void MemoryLease::Shrink(size_t bytes) {
  if (arbiter_ == nullptr) return;
  const size_t give_back = std::min(bytes, bytes_);
  if (give_back == 0) return;
  arbiter_->ReleaseBytes(give_back);
  bytes_ -= give_back;
}

void MemoryLease::Release() {
  if (arbiter_ == nullptr) return;
  if (bytes_ > 0) arbiter_->ReleaseBytes(bytes_);
  arbiter_ = nullptr;
  bytes_ = 0;
}

MemoryArbiter::MemoryArbiter() : MemoryArbiter(Options()) {}

MemoryArbiter::MemoryArbiter(const Options& options)
    : options_(options), fault_rng_(fault_profile_.seed) {}

Result<MemoryLease> MemoryArbiter::Acquire(std::string tag, size_t bytes) {
  TOPK_RETURN_NOT_OK(Grant(tag, bytes, /*initial=*/true));
  return MemoryLease(this, std::move(tag), bytes);
}

void MemoryArbiter::Reset(size_t budget_bytes) {
  Options options;
  options.budget_bytes = budget_bytes;
  Reset(options);
}

void MemoryArbiter::Reset(const Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  peak_ = granted_;
  grants_ = 0;
  denials_ = 0;
  faults_injected_ = 0;
  MemoryPressure level = MemoryPressure::kOk;
  UpdatePressureLocked(&level);
}

void MemoryArbiter::SetFaultProfile(const MemFaultProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_profile_ = profile;
  fault_rng_ = Random(profile.seed);
}

MemFaultProfile MemoryArbiter::fault_profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fault_profile_;
}

size_t MemoryArbiter::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.budget_bytes;
}

size_t MemoryArbiter::granted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return granted_;
}

size_t MemoryArbiter::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

uint64_t MemoryArbiter::grant_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return grants_;
}

uint64_t MemoryArbiter::denial_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denials_;
}

uint64_t MemoryArbiter::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

Status MemoryArbiter::Grant(const std::string& tag, size_t bytes,
                            bool initial) {
  MemoryPressure level = MemoryPressure::kOk;
  bool level_changed = false;
  bool inject_throw = false;
  Status failure;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++grants_;
    bool deny_injected = false;
    if (fault_profile_.enabled()) {
      if (fault_profile_.deny_nth > 0 && grants_ == fault_profile_.deny_nth) {
        deny_injected = true;
      }
      if (!deny_injected && fault_profile_.deny_rate > 0.0 &&
          fault_rng_.NextDouble() < fault_profile_.deny_rate) {
        deny_injected = true;
      }
    }
    if (deny_injected) {
      ++faults_injected_;
      ++denials_;
      if (fault_profile_.throw_bad_alloc) {
        inject_throw = true;
      } else {
        failure = Status::OutOfMemory(
            "injected allocation failure granting " + std::to_string(bytes) +
            " bytes for '" + tag + "' (mem fault profile " +
            fault_profile_.ToString() + ")");
      }
    } else if (options_.budget_bytes > 0) {
      const size_t hard_threshold = static_cast<size_t>(
          options_.hard_fraction * static_cast<double>(options_.budget_bytes));
      if (initial && granted_ >= hard_threshold) {
        ++denials_;
        failure = Status::ResourceExhausted(
            "memory arbiter under hard pressure: refusing new lease of " +
            std::to_string(bytes) + " bytes for '" + tag + "' with " +
            std::to_string(granted_) + " bytes already granted "
            "(mem_budget_bytes=" +
            std::to_string(options_.budget_bytes) + ")");
      } else if (granted_ + bytes > options_.budget_bytes) {
        ++denials_;
        failure = Status::ResourceExhausted(
            "memory arbiter budget exhausted: cannot grant " +
            std::to_string(bytes) + " bytes for '" + tag + "' over " +
            std::to_string(granted_) +
            " bytes already granted (mem_budget_bytes=" +
            std::to_string(options_.budget_bytes) + ")");
      }
    }
    if (failure.ok() && !inject_throw) {
      granted_ += bytes;
      peak_ = std::max(peak_, granted_);
      level_changed = UpdatePressureLocked(&level);
    }
    GrantedBytesGauge().Set(static_cast<int64_t>(granted_));
    PeakBytesGauge().Set(static_cast<int64_t>(peak_));
  }
  GrantsCounter().Add(1);
  if (inject_throw || !failure.ok()) {
    DenialsCounter().Add(1);
    if (inject_throw) {
      FaultsInjectedCounter().Add(1);
      throw std::bad_alloc();
    }
    if (failure.code() == StatusCode::kOutOfMemory) {
      FaultsInjectedCounter().Add(1);
    }
    return failure;
  }
  if (level_changed) NotifyPressureChange(level);
  return Status::OK();
}

void MemoryArbiter::NotifyPressureChange(MemoryPressure level) {
  PressureTransitionsCounter().Add(1);
  PressureLevelGauge().Set(static_cast<int64_t>(level));
  if (TracingEnabled()) {
    TraceInstant("mem.pressure_change", "mem",
                 {TraceArg("level", std::string(MemoryPressureName(level))),
                  TraceArg("granted_bytes", granted_bytes())});
  }
}

void MemoryArbiter::ReleaseBytes(size_t bytes) {
  MemoryPressure level = MemoryPressure::kOk;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    granted_ = bytes > granted_ ? 0 : granted_ - bytes;
    changed = UpdatePressureLocked(&level);
    GrantedBytesGauge().Set(static_cast<int64_t>(granted_));
  }
  if (changed) NotifyPressureChange(level);
}

bool MemoryArbiter::UpdatePressureLocked(MemoryPressure* level) {
  MemoryPressure next = MemoryPressure::kOk;
  if (options_.budget_bytes > 0) {
    const double fraction = static_cast<double>(granted_) /
                            static_cast<double>(options_.budget_bytes);
    if (fraction >= options_.hard_fraction) {
      next = MemoryPressure::kHard;
    } else if (fraction >= options_.soft_fraction) {
      next = MemoryPressure::kSoft;
    }
  }
  const int old_level = pressure_level_.exchange(static_cast<int>(next),
                                                 std::memory_order_relaxed);
  *level = next;
  return old_level != static_cast<int>(next);
}

MemoryArbiter* GlobalMemoryArbiter() {
  static MemoryArbiter* arbiter = [] {
    auto* instance = new MemoryArbiter();  // unlimited: accounting only
    if (const char* spec = std::getenv("TOPK_MEM_FAULT");
        spec != nullptr && spec[0] != '\0') {
      auto profile = MemFaultProfile::Parse(spec);
      if (profile.ok()) {
        instance->SetFaultProfile(*profile);
      } else {
        TOPK_LOG(Warning) << "ignoring invalid TOPK_MEM_FAULT: "
                          << profile.status().ToString();
      }
    }
    return instance;
  }();
  return arbiter;
}

}  // namespace topk
