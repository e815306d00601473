/// The contract every external top-k operator (traditional, optimized,
/// histogram) shares: entry-point preconditions, the merge-phase resume
/// guards, the first-error latch Suspend reports, and the exact work
/// counters each cutoff policy produces on fixed inputs. Compare counts are
/// deliberately not pinned: they differ with offset-value coding off
/// (TOPK_OVC=0), and the suite runs both ways.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ReferenceTopKWithTies;
using testing_util::RunOperator;
using testing_util::ScratchDir;

constexpr char kManifest[] = "query.tkm";

constexpr TopKAlgorithm kExternalAlgorithms[] = {
    TopKAlgorithm::kTraditionalExternal, TopKAlgorithm::kOptimizedExternal,
    TopKAlgorithm::kHistogram};

std::string ParamName(const ::testing::TestParamInfo<TopKAlgorithm>& info) {
  std::string name = TopKAlgorithmName(info.param);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

std::vector<Row> UniformRows(uint64_t rows, uint64_t seed) {
  DatasetSpec spec;
  spec.WithRows(rows).WithSeed(seed).WithPayload(8, 40);
  return MaterializeDataset(spec);
}

// ------------------------------------------------------ entry-point contract

class ExternalContractTest : public ::testing::TestWithParam<TopKAlgorithm> {
 protected:
  TopKOptions Options() {
    TopKOptions options;
    options.k = 300;
    options.memory_limit_bytes = 16 * 1024;
    options.merge_fan_in = 4;
    options.io_background_threads = 0;
    options.env = &env_;
    options.spill_dir = scratch_.str();
    return options;
  }

  std::unique_ptr<TopKOperator> Make(const TopKOptions& options) {
    auto op = MakeTopKOperator(GetParam(), options);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    return op.ok() ? std::move(*op) : nullptr;
  }

  ScratchDir scratch_;
  StorageEnv env_;
};

TEST_P(ExternalContractTest, ConsumeAfterFinishAndSecondFinishAreRejected) {
  auto op = Make(Options());
  ASSERT_NE(op, nullptr);
  const auto rows = UniformRows(5000, 3);
  auto result = RunOperator(op.get(), rows);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(op->Consume(rows[0]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(op->Finish().status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(ExternalContractTest, SuspendAfterFinishIsRejected) {
  TopKOptions options = Options();
  options.manifest_filename = kManifest;
  auto op = Make(options);
  ASSERT_NE(op, nullptr);
  auto result = RunOperator(op.get(), UniformRows(5000, 3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(op->Suspend().code(), StatusCode::kFailedPrecondition);
}

TEST_P(ExternalContractTest, SuspendWithoutManifestIsRejected) {
  auto op = Make(Options());
  ASSERT_NE(op, nullptr);
  for (const Row& row : UniformRows(2000, 4)) {
    ASSERT_TRUE(op->Consume(row).ok());
  }
  EXPECT_EQ(op->Suspend().code(), StatusCode::kFailedPrecondition);
}

TEST_P(ExternalContractTest, MergePhaseResumeRejectsConsumeAndSuspend) {
  // A merge that fails on storage leaves a manifest describing the complete
  // run set; resuming it yields a merge-phase operator for every algorithm
  // (the optimized operator dropped its input checkpoint once the input was
  // fully in runs).
  TopKOptions options = Options();
  options.manifest_filename = kManifest;
  const auto rows = UniformRows(8000, 5);
  {
    auto op = Make(options);
    ASSERT_NE(op, nullptr);
    for (const Row& row : rows) {
      ASSERT_TRUE(op->Consume(row).ok());
    }
    env_.InjectReadFailure(1);
    auto result = op->Finish();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  auto resumed = ResumeTopKOperator(GetParam(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE((*resumed)->resume_accepts_input());
  EXPECT_EQ((*resumed)->Consume(rows[0]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*resumed)->Suspend().code(), StatusCode::kFailedPrecondition);
  // The guards left the resumed state intact.
  auto result = (*resumed)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 300, 0, SortDirection::kAscending),
                 *result);
}

TEST_P(ExternalContractTest, SuspendReportsTheFirstConsumeError) {
  TopKOptions options = Options();
  options.manifest_filename = kManifest;
  auto op = Make(options);
  ASSERT_NE(op, nullptr);
  env_.InjectWriteFailure(3);
  Status failed = Status::OK();
  for (const Row& row : UniformRows(8000, 6)) {
    failed = op->Consume(row);
    if (!failed.ok()) break;
  }
  ASSERT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
  Status suspended = op->Suspend();
  EXPECT_EQ(suspended.code(), StatusCode::kIoError) << suspended.ToString();
  EXPECT_EQ(suspended.message(), failed.message());
}

TEST_P(ExternalContractTest, SuspendReportsTheFirstFinishError) {
  TopKOptions options = Options();
  options.manifest_filename = kManifest;
  auto op = Make(options);
  ASSERT_NE(op, nullptr);
  for (const Row& row : UniformRows(8000, 7)) {
    ASSERT_TRUE(op->Consume(row).ok());
  }
  env_.InjectReadFailure(1);
  auto result = op->Finish();
  ASSERT_EQ(result.status().code(), StatusCode::kIoError);
  Status suspended = op->Suspend();
  EXPECT_EQ(suspended.code(), StatusCode::kIoError) << suspended.ToString();
  EXPECT_EQ(suspended.message(), result.status().message());
}

INSTANTIATE_TEST_SUITE_P(AllExternal, ExternalContractTest,
                         ::testing::ValuesIn(kExternalAlgorithms), ParamName);

// --------------------------------------------------------- exact counters

/// Every deterministic OperatorStats field of one run.
struct Counters {
  uint64_t rows_consumed;
  uint64_t rows_eliminated_input;
  uint64_t rows_eliminated_spill;
  uint64_t rows_spilled;
  uint64_t runs_created;
  uint64_t bytes_spilled;
  uint64_t merge_rows_written;
  uint64_t merge_rows_read;
  uint64_t offset_rows_seek_skipped;
  size_t peak_memory_bytes;
  std::optional<double> final_cutoff;
  uint64_t filter_buckets_inserted;
  uint64_t filter_consolidations;
};

std::string Describe(const OperatorStats& s) {
  char cutoff[64] = "std::nullopt";
  if (s.final_cutoff.has_value()) {
    std::snprintf(cutoff, sizeof(cutoff), "%.17g", *s.final_cutoff);
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %zu, %s, %llu, "
      "%llu}",
      static_cast<unsigned long long>(s.rows_consumed),
      static_cast<unsigned long long>(s.rows_eliminated_input),
      static_cast<unsigned long long>(s.rows_eliminated_spill),
      static_cast<unsigned long long>(s.rows_spilled),
      static_cast<unsigned long long>(s.runs_created),
      static_cast<unsigned long long>(s.bytes_spilled),
      static_cast<unsigned long long>(s.merge_rows_written),
      static_cast<unsigned long long>(s.merge_rows_read),
      static_cast<unsigned long long>(s.offset_rows_seek_skipped),
      s.peak_memory_bytes,
      cutoff,
      static_cast<unsigned long long>(s.filter_buckets_inserted),
      static_cast<unsigned long long>(s.filter_consolidations));
  return buf;
}

void ExpectCounters(const Counters& want, const OperatorStats& got) {
  SCOPED_TRACE("actual " + Describe(got));
  EXPECT_EQ(got.rows_consumed, want.rows_consumed);
  EXPECT_EQ(got.rows_eliminated_input, want.rows_eliminated_input);
  EXPECT_EQ(got.rows_eliminated_spill, want.rows_eliminated_spill);
  EXPECT_EQ(got.rows_spilled, want.rows_spilled);
  EXPECT_EQ(got.runs_created, want.runs_created);
  EXPECT_EQ(got.bytes_spilled, want.bytes_spilled);
  EXPECT_EQ(got.merge_rows_written, want.merge_rows_written);
  EXPECT_EQ(got.merge_rows_read, want.merge_rows_read);
  EXPECT_EQ(got.offset_rows_seek_skipped, want.offset_rows_seek_skipped);
  EXPECT_EQ(got.peak_memory_bytes, want.peak_memory_bytes);
  EXPECT_EQ(got.final_cutoff.has_value(), want.final_cutoff.has_value());
  if (got.final_cutoff.has_value() && want.final_cutoff.has_value()) {
    EXPECT_EQ(*got.final_cutoff, *want.final_cutoff);
  }
  EXPECT_EQ(got.filter_buckets_inserted, want.filter_buckets_inserted);
  EXPECT_EQ(got.filter_consolidations, want.filter_consolidations);
}

/// Synchronous I/O keeps every counter independent of pool timing.
TopKOptions CounterOptions(StorageEnv* env, const std::string& dir) {
  TopKOptions options;
  options.k = 400;
  options.memory_limit_bytes = 32 * 1024;
  options.merge_fan_in = 4;
  options.io_background_threads = 0;
  options.env = env;
  options.spill_dir = dir;
  return options;
}

/// Runs `algorithm` over `rows`, checks the answer against the full-sort
/// oracle, and returns the operator's stats.
OperatorStats RunAndVerify(TopKAlgorithm algorithm, const TopKOptions& options,
                           const std::vector<Row>& rows) {
  auto op = MakeTopKOperator(algorithm, options);
  EXPECT_TRUE(op.ok()) << op.status().ToString();
  if (!op.ok()) return {};
  auto result = RunOperator(op->get(), rows);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  const auto expected =
      options.with_ties
          ? ReferenceTopKWithTies(rows, options.k, options.offset,
                                  options.direction)
          : ReferenceTopK(rows, options.k, options.offset, options.direction);
  ExpectSameRows(expected, *result);
  return (*op)->stats();
}

struct CounterCase {
  TopKAlgorithm algorithm;
  Counters want;
};

TEST(ExternalCountersTest, UniformSpilling) {
  const auto rows = UniformRows(40000, 11);
  const CounterCase cases[] = {
      {TopKAlgorithm::kTraditionalExternal,
       {40000, 0, 0, 40000, 71, 5741605, 90327, 90731, 0, 32905,
        std::nullopt, 0, 0}},
      {TopKAlgorithm::kOptimizedExternal,
       {40000, 33325, 1461, 5214, 14, 301959, 1600, 2017, 0, 32903,
        0.050556544783043611, 0, 0}},
      {TopKAlgorithm::kHistogram,
       {40000, 36920, 1247, 1833, 8, 115803, 770, 1178, 0, 32905,
        0.010737835594143874, 228, 0}},
  };
  for (const CounterCase& c : cases) {
    SCOPED_TRACE(TopKAlgorithmName(c.algorithm));
    ScratchDir scratch;
    StorageEnv env;
    ExpectCounters(c.want, RunAndVerify(c.algorithm,
                                        CounterOptions(&env, scratch.str()),
                                        rows));
  }
}

TEST(ExternalCountersTest, FalWithOffsetAndTies) {
  DatasetSpec spec;
  spec.WithRows(40000).WithSeed(12).WithFalShape(1.25).WithPayload(8, 24);
  const auto rows = MaterializeDataset(spec);
  const CounterCase cases[] = {
      {TopKAlgorithm::kTraditionalExternal,
       {40000, 0, 0, 40000, 62, 1440277, 0, 2961, 0, 32889, std::nullopt,
        0, 0}},
      {TopKAlgorithm::kOptimizedExternal,
       {40000, 18288, 100, 21612, 34, 883113, 2900, 5835, 0, 32889,
        0.14893481961900076, 0, 0}},
      {TopKAlgorithm::kHistogram,
       {40000, 28614, 926, 10460, 20, 376423, 0, 711, 2208, 32889,
        0.078260372724085467, 796, 0}},
  };
  for (const CounterCase& c : cases) {
    SCOPED_TRACE(TopKAlgorithmName(c.algorithm));
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options = CounterOptions(&env, scratch.str());
    options.offset = 2500;
    options.with_ties = true;
    // Wide enough that the final merge reads the generated runs directly,
    // so the histogram operator's offset seeks have index entries to use.
    options.merge_fan_in = 64;
    ExpectCounters(c.want, RunAndVerify(c.algorithm, options, rows));
  }
}

TEST(ExternalCountersTest, QuicksortRunGeneration) {
  const auto rows = UniformRows(40000, 13);
  const CounterCase cases[] = {
      {TopKAlgorithm::kTraditionalExternal,
       {40000, 0, 0, 40000, 140, 6686733, 111850, 112254, 0, 32768,
        std::nullopt, 0, 0}},
      {TopKAlgorithm::kOptimizedExternal,
       {40000, 31752, 1, 8247, 29, 487885, 2800, 3236, 0, 32753,
        0.14613907859078834, 0, 0}},
      {TopKAlgorithm::kHistogram,
       {40000, 37180, 960, 1860, 10, 116353, 770, 1181, 0, 32756,
        0.01117280078069216, 230, 0}},
  };
  for (const CounterCase& c : cases) {
    SCOPED_TRACE(TopKAlgorithmName(c.algorithm));
    ScratchDir scratch;
    StorageEnv env;
    TopKOptions options = CounterOptions(&env, scratch.str());
    options.run_generation = RunGenerationKind::kQuicksort;
    ExpectCounters(c.want, RunAndVerify(c.algorithm, options, rows));
  }
}

TEST(ExternalCountersTest, OptimizedEarlyMergeWithInputCheckpoints) {
  // k exceeds the run size, so only early merges can establish a cutoff;
  // input checkpoints pin the runs they cover against those merges.
  const auto rows = UniformRows(60000, 14);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = CounterOptions(&env, scratch.str());
  options.k = 3000;
  options.early_merge_fan_in = 4;
  options.manifest_filename = kManifest;
  options.checkpoint_input_every_rows = 7000;
  ExpectCounters({60000, 12996, 11, 46993, 96, 5719679, 82889, 85996, 0, 32905,
                  0.77019397477966389, 0, 0},
                 RunAndVerify(TopKAlgorithm::kOptimizedExternal, options,
                              rows));
}

TEST(ExternalCountersTest, HistogramQuotaConsolidation) {
  // A spill quota tight enough that the operator must consolidate runs
  // through the cutoff filter to stay under it.
  const auto rows = UniformRows(60000, 15);
  ScratchDir scratch;
  StorageEnv env;
  TopKOptions options = CounterOptions(&env, scratch.str());
  options.k = 3000;
  options.spill_quota_bytes = 200000;
  ExpectCounters({60000, 47016, 894, 12090, 34, 1637590, 25200, 28231, 0, 32905,
                  0.051693782387490339, 1081, 0},
                 RunAndVerify(TopKAlgorithm::kHistogram, options, rows));
}

}  // namespace
}  // namespace topk
