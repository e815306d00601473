/// Unit tests for the process-wide memory arbiter: lease accounting, the
/// pressure ladder, hard-pressure admission control, the pressure poll,
/// chunked lease growth, and deterministic allocation-fault injection.

#include "common/resource_arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <new>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace topk {
namespace {

constexpr size_t kChunk = 256 * 1024;  // mirrors kLeaseChunkBytes

MemoryArbiter::Options BudgetOptions(size_t budget) {
  MemoryArbiter::Options options;
  options.budget_bytes = budget;
  return options;
}

TEST(MemoryArbiterTest, AccountingOnlyByDefault) {
  MemoryArbiter arbiter;  // budget 0: grants always succeed
  EXPECT_EQ(arbiter.budget_bytes(), 0u);
  auto lease = arbiter.Acquire("test", 1 << 20);
  ASSERT_TRUE(lease.ok()) << lease.status().ToString();
  EXPECT_EQ(arbiter.granted_bytes(), size_t{1} << 20);
  EXPECT_EQ(arbiter.peak_bytes(), size_t{1} << 20);
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kOk);
  lease->Release();
  EXPECT_EQ(arbiter.granted_bytes(), 0u);
  EXPECT_EQ(arbiter.peak_bytes(), size_t{1} << 20);  // peak survives release
  EXPECT_EQ(arbiter.denial_count(), 0u);
}

TEST(MemoryArbiterTest, BudgetDenialNamesTheBudget) {
  MemoryArbiter arbiter(BudgetOptions(1000));
  auto lease = arbiter.Acquire("greedy", 2000);
  ASSERT_FALSE(lease.ok());
  EXPECT_EQ(lease.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(lease.status().message().find("(mem_budget_bytes=1000)"),
            std::string::npos)
      << lease.status().ToString();
  EXPECT_NE(lease.status().message().find("greedy"), std::string::npos);
  EXPECT_EQ(arbiter.denial_count(), 1u);
  EXPECT_EQ(arbiter.granted_bytes(), 0u);
}

TEST(MemoryArbiterTest, PressureLadderTransitions) {
  MemoryArbiter arbiter(BudgetOptions(100000));  // soft at 75k, hard at 95k
  auto lease = arbiter.Acquire("ladder", 70000);
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kOk);
  ASSERT_TRUE(lease->Grow(10000).ok());  // 80k
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kSoft);
  ASSERT_TRUE(lease->Grow(16000).ok());  // 96k
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kHard);
  lease->Shrink(30000);  // 66k
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kOk);
}

TEST(MemoryArbiterTest, HardPressureRefusesNewLeasesButAllowsGrowth) {
  MemoryArbiter arbiter(BudgetOptions(100000));
  auto holder = arbiter.Acquire("holder", 96000);
  ASSERT_TRUE(holder.ok());
  ASSERT_EQ(arbiter.pressure(), MemoryPressure::kHard);

  // A new lease — even a zero-byte bootstrap — is fail-fasted.
  auto newcomer = arbiter.Acquire("newcomer", 0);
  ASSERT_FALSE(newcomer.ok());
  EXPECT_EQ(newcomer.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(newcomer.status().message().find("hard pressure"),
            std::string::npos)
      << newcomer.status().ToString();

  // The in-flight holder may still grow to the full budget...
  EXPECT_TRUE(holder->Grow(4000).ok());  // exactly 100k
  // ...but not past it.
  Status over = holder->Grow(1);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
}

TEST(MemoryArbiterTest, PressurePollSeesEveryTransition) {
  MemoryArbiter arbiter(BudgetOptions(100000));
  MetricsCounter* transitions =
      GlobalMetrics().GetCounter("mem.arbiter.pressure_transitions");
  const uint64_t before = transitions->value();
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kOk);

  auto lease = arbiter.Acquire("poll", 80000);  // ok -> soft
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kSoft);
  ASSERT_TRUE(lease->Grow(16000).ok());  // soft -> hard
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kHard);
  lease->Release();  // hard -> ok
  EXPECT_EQ(arbiter.pressure(), MemoryPressure::kOk);
  EXPECT_EQ(transitions->value(), before + 3);
}

TEST(MemoryArbiterTest, NthGrantDenied) {
  MemoryArbiter arbiter;
  MemFaultProfile profile;
  profile.deny_nth = 3;
  arbiter.SetFaultProfile(profile);

  EXPECT_TRUE(arbiter.Acquire("a", 10).ok());
  EXPECT_TRUE(arbiter.Acquire("b", 10).ok());
  auto third = arbiter.Acquire("c", 10);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOutOfMemory);
  EXPECT_NE(third.status().message().find("injected allocation failure"),
            std::string::npos)
      << third.status().ToString();
  EXPECT_EQ(arbiter.faults_injected(), 1u);
  EXPECT_TRUE(arbiter.Acquire("d", 10).ok());  // only the nth is denied
}

TEST(MemoryArbiterTest, ProbabilisticDenialIsDeterministic) {
  MemFaultProfile profile;
  profile.deny_rate = 0.5;
  profile.seed = 7;

  auto run = [&profile]() {
    MemoryArbiter arbiter;
    arbiter.SetFaultProfile(profile);
    std::vector<bool> denied;
    for (int i = 0; i < 100; ++i) {
      denied.push_back(!arbiter.Acquire("p", 1).ok());
    }
    return denied;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  const size_t denials =
      static_cast<size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(denials, 0u);
  EXPECT_LT(denials, 100u);
}

TEST(MemoryArbiterTest, ThrowModeThrowsBadAlloc) {
  MemoryArbiter arbiter;
  MemFaultProfile profile;
  profile.deny_nth = 1;
  profile.throw_bad_alloc = true;
  arbiter.SetFaultProfile(profile);
  EXPECT_THROW({ auto lease = arbiter.Acquire("boom", 1); }, std::bad_alloc);
  EXPECT_EQ(arbiter.faults_injected(), 1u);
  EXPECT_EQ(arbiter.granted_bytes(), 0u);  // the denied grant charged nothing
}

TEST(MemFaultProfileTest, ParseRoundTrip) {
  auto profile = MemFaultProfile::Parse("deny=0.25,nth=5,seed=9,mode=throw");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_DOUBLE_EQ(profile->deny_rate, 0.25);
  EXPECT_EQ(profile->deny_nth, 5u);
  EXPECT_EQ(profile->seed, 9u);
  EXPECT_TRUE(profile->throw_bad_alloc);
  EXPECT_TRUE(profile->enabled());

  auto reparsed = MemFaultProfile::Parse(profile->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_DOUBLE_EQ(reparsed->deny_rate, profile->deny_rate);
  EXPECT_EQ(reparsed->deny_nth, profile->deny_nth);
  EXPECT_EQ(reparsed->seed, profile->seed);
  EXPECT_EQ(reparsed->throw_bad_alloc, profile->throw_bad_alloc);
}

TEST(MemFaultProfileTest, ParseRejectsBadSpecs) {
  EXPECT_EQ(MemFaultProfile::Parse("bogus=1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MemFaultProfile::Parse("deny=1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MemFaultProfile::Parse("mode=explode").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MemFaultProfile::Parse("nth=abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MemFaultProfile::Parse("deny").status().code(),
            StatusCode::kInvalidArgument);
  auto empty = MemFaultProfile::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->enabled());
}

TEST(MemoryLeaseTest, EnsureAtLeastGrowsInChunks) {
  MemoryArbiter arbiter;
  auto lease = arbiter.Acquire("chunked", 0);
  ASSERT_TRUE(lease.ok());
  const uint64_t grants_after_acquire = arbiter.grant_count();

  ASSERT_TRUE(lease->EnsureAtLeast(1).ok());
  EXPECT_EQ(lease->bytes(), kChunk);
  EXPECT_EQ(arbiter.grant_count(), grants_after_acquire + 1);

  // Growth within the already-leased chunk is free: no arbiter round.
  ASSERT_TRUE(lease->EnsureAtLeast(kChunk - 1).ok());
  ASSERT_TRUE(lease->EnsureAtLeast(kChunk).ok());
  EXPECT_EQ(arbiter.grant_count(), grants_after_acquire + 1);
  EXPECT_EQ(lease->bytes(), kChunk);

  // One byte past the chunk boundary costs exactly one more chunk.
  ASSERT_TRUE(lease->EnsureAtLeast(kChunk + 1).ok());
  EXPECT_EQ(lease->bytes(), 2 * kChunk);
  EXPECT_EQ(arbiter.grant_count(), grants_after_acquire + 2);
}

TEST(MemoryLeaseTest, ShrinkToKeepsTwoChunksOfHysteresis) {
  MemoryArbiter arbiter;
  auto lease = arbiter.Acquire("hysteresis", 4 * kChunk);
  ASSERT_TRUE(lease.ok());

  // Two+ chunks of slack beyond the rounded target are returned.
  lease->ShrinkTo(kChunk + 1);  // rounds to 2 chunks; 4 >= 2 + 2 slack
  EXPECT_EQ(lease->bytes(), 2 * kChunk);

  // Within two chunks of the rounded target: hysteresis, no churn. This
  // is the replacement-selection steady state — EnsureAtLeast overshoots
  // by one chunk, the next spill dips back under — which must not cost an
  // arbiter round per row.
  lease->ShrinkTo(kChunk);  // rounds to 1 chunk; 2 < 1 + 2 slack
  EXPECT_EQ(lease->bytes(), 2 * kChunk);

  lease->ShrinkTo(0);  // 2 >= 0 + 2 slack: released entirely
  EXPECT_EQ(lease->bytes(), 0u);
  EXPECT_EQ(arbiter.granted_bytes(), 0u);
}

TEST(MemoryLeaseTest, DetachedLeaseNoops) {
  MemoryLease lease;
  EXPECT_FALSE(lease.attached());
  EXPECT_TRUE(lease.Grow(1 << 20).ok());
  EXPECT_TRUE(lease.EnsureAtLeast(1 << 20).ok());
  lease.Shrink(123);
  lease.ShrinkTo(0);
  lease.Release();
  EXPECT_EQ(lease.bytes(), 0u);
}

TEST(MemoryLeaseTest, MoveTransfersTheReservation) {
  MemoryArbiter arbiter;
  auto lease = arbiter.Acquire("mover", 1000);
  ASSERT_TRUE(lease.ok());
  MemoryLease moved = std::move(*lease);
  EXPECT_FALSE(lease->attached());
  EXPECT_TRUE(moved.attached());
  EXPECT_EQ(moved.bytes(), 1000u);
  EXPECT_EQ(arbiter.granted_bytes(), 1000u);
  moved.Release();
  EXPECT_EQ(arbiter.granted_bytes(), 0u);
}

TEST(MemoryLeaseTest, ReleasesOnDestruction) {
  MemoryArbiter arbiter;
  {
    auto lease = arbiter.Acquire("raii", 4096);
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(arbiter.granted_bytes(), 4096u);
  }
  EXPECT_EQ(arbiter.granted_bytes(), 0u);
}

TEST(MemoryArbiterTest, ResetClearsCountersAndRearmsBudget) {
  MemoryArbiter arbiter(BudgetOptions(1000));
  (void)arbiter.Acquire("denied", 2000);  // one denial
  EXPECT_EQ(arbiter.denial_count(), 1u);

  arbiter.Reset(size_t{1} << 20);
  EXPECT_EQ(arbiter.budget_bytes(), size_t{1} << 20);
  EXPECT_EQ(arbiter.denial_count(), 0u);
  EXPECT_EQ(arbiter.grant_count(), 0u);
  EXPECT_EQ(arbiter.faults_injected(), 0u);
  EXPECT_TRUE(arbiter.Acquire("now-fits", 2000).ok());
}

}  // namespace
}  // namespace topk
