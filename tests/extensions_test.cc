#include <algorithm>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"

#include "extensions/approx_topk.h"
#include "extensions/grouped_topk.h"
#include "extensions/parallel_topk.h"
#include "extensions/segmented_topk.h"
#include "row/serialization.h"
#include "tests/test_util.h"

namespace topk {
namespace {

using testing_util::ExpectSameRows;
using testing_util::MaterializeDataset;
using testing_util::ReferenceTopK;
using testing_util::ScratchDir;

class ExtensionsTest : public ::testing::Test {
 protected:
  TopKOptions BaseOptions(uint64_t k, size_t memory_bytes = 32 * 1024) {
    TopKOptions options;
    options.k = k;
    options.memory_limit_bytes = memory_bytes;
    options.env = &env_;
    options.spill_dir = scratch_.str() + "/" + std::to_string(dir_seq_++);
    return options;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  int dir_seq_ = 0;
};

// ---------------- Grouped top-k (Sec 4.3) ----------------

TEST_F(ExtensionsTest, GroupedTopKMatchesPerGroupReference) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(300, 16 * 1024);
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());

  DatasetSpec spec;
  spec.WithRows(30000).WithSeed(1);
  auto rows = MaterializeDataset(spec);
  std::map<uint64_t, std::vector<Row>> by_group;
  for (const Row& row : rows) {
    const uint64_t group = row.id % 7;
    by_group[group].push_back(row);
    ASSERT_TRUE((*grouped)->Consume(group, row).ok());
  }
  EXPECT_EQ((*grouped)->group_count(), 7u);

  auto results = (*grouped)->Finish();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 7u);
  for (const auto& result : *results) {
    ExpectSameRows(ReferenceTopK(by_group[result.group], 300, 0,
                                 SortDirection::kAscending),
                   result.rows);
  }
}

TEST_F(ExtensionsTest, GroupedTopKSkewedGroupSizes) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(50, 8 * 1024);
  options.grouped_buckets_per_run = 5;  // smaller per-group histograms
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());

  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(2);
  auto rows = MaterializeDataset(spec);
  std::map<uint64_t, std::vector<Row>> by_group;
  for (const Row& row : rows) {
    // Group 0 gets ~94% of rows; groups 1..16 share the tail.
    const uint64_t group = (row.id % 16 == 0) ? 1 + (row.id % 15) : 0;
    by_group[group].push_back(row);
    ASSERT_TRUE((*grouped)->Consume(group, row).ok());
  }
  auto results = (*grouped)->Finish();
  ASSERT_TRUE(results.ok());
  for (const auto& result : *results) {
    ExpectSameRows(ReferenceTopK(by_group[result.group], 50, 0,
                                 SortDirection::kAscending),
                   result.rows);
  }
}

TEST_F(ExtensionsTest, GroupedTopKConsumeAfterFinishFails) {
  GroupedTopK::Options options;
  options.per_group = BaseOptions(10);
  auto grouped = GroupedTopK::Make(options);
  ASSERT_TRUE(grouped.ok());
  ASSERT_TRUE((*grouped)->Consume(0, Row(1, 1)).ok());
  ASSERT_TRUE((*grouped)->Finish().ok());
  EXPECT_EQ((*grouped)->Consume(0, Row(2, 2)).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------- Segmented top-k (Sec 4.2) ----------------

TEST_F(ExtensionsTest, SegmentedTopKStopsAfterKRows) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(100, 16 * 1024);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());

  // Three segments of 80 rows each: k=100 needs all of segment 0 plus the
  // top 20 of segment 1; segment 2 must be ignored.
  DatasetSpec spec;
  spec.WithRows(240).WithSeed(3);
  auto rows = MaterializeDataset(spec);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE((*segmented)->Consume(i / 80, rows[i]).ok());
  }
  EXPECT_GT((*segmented)->rows_ignored(), 0u);
  auto result = (*segmented)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 100u);

  // Expected: segment 0 fully sorted (80 rows), then top-20 of segment 1.
  std::vector<Row> segment0(rows.begin(), rows.begin() + 80);
  std::vector<Row> segment1(rows.begin() + 80, rows.begin() + 160);
  auto expected0 = ReferenceTopK(segment0, 80, 0, SortDirection::kAscending);
  auto expected1 = ReferenceTopK(segment1, 20, 0, SortDirection::kAscending);
  for (size_t i = 0; i < 80; ++i) {
    EXPECT_EQ((*result)[i].segment, 0u);
    EXPECT_EQ((*result)[i].row.id, expected0[i].id);
  }
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ((*result)[80 + i].segment, 1u);
    EXPECT_EQ((*result)[80 + i].row.id, expected1[i].id);
  }
}

TEST_F(ExtensionsTest, SegmentedTopKFirstSegmentSatisfiesQuery) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*segmented)->Consume(0, Row(i, i)).ok());
  }
  // Close segment 0 by presenting segment 1; everything after is ignored.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*segmented)->Consume(1, Row(-100 + i, 100 + i)).ok());
  }
  EXPECT_TRUE((*segmented)->saturated());
  EXPECT_EQ((*segmented)->rows_ignored(), 50u);  // all of segment 1
  auto result = (*segmented)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*result)[i].segment, 0u);
    EXPECT_EQ((*result)[i].row.key, i);
  }
}

TEST_F(ExtensionsTest, SegmentedTopKRejectsOutOfOrderSegments) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  auto segmented = SegmentedTopK::Make(options);
  ASSERT_TRUE(segmented.ok());
  ASSERT_TRUE((*segmented)->Consume(3, Row(1, 1)).ok());
  EXPECT_EQ((*segmented)->Consume(2, Row(2, 2)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExtensionsTest, SegmentedTopKRejectsOffset) {
  SegmentedTopK::Options options;
  options.base = BaseOptions(10);
  options.base.offset = 5;
  EXPECT_FALSE(SegmentedTopK::Make(options).ok());
}

// ---------------- Approximate top-k (Sec 4.5) ----------------

TEST_F(ExtensionsTest, ApproxTopKReturnsTruePrefixWithinTolerance) {
  auto op = ApproxTopK::Make(BaseOptions(2000, 16 * 1024), 0.1);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->guaranteed_rows(), 1800u);
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(4);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->size(), 1800u);
  ASSERT_LE(result->size(), 2000u);
  // Guarantee (Sec 4.5): the first k' rows are the exact top-k'; rows
  // between k' and k may be approximate in *membership* (the second form
  // of approximation) but are still sorted retained rows.
  auto exact_prefix = ReferenceTopK(rows, 1800, 0, SortDirection::kAscending);
  std::vector<Row> head(result->begin(), result->begin() + 1800);
  ExpectSameRows(exact_prefix, head);
  RowComparator cmp;
  EXPECT_TRUE(std::is_sorted(result->begin(), result->end(), cmp));
}

TEST_F(ExtensionsTest, ApproxTopKZeroToleranceIsExact) {
  auto op = ApproxTopK::Make(BaseOptions(500, 16 * 1024), 0.0);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(5);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(ExtensionsTest, ApproxTopKRejectsBadTolerance) {
  EXPECT_FALSE(ApproxTopK::Make(BaseOptions(10), 1.0).ok());
  EXPECT_FALSE(ApproxTopK::Make(BaseOptions(10), -0.1).ok());
}

// ---------------- Parallel top-k (Sec 4.4) ----------------

TEST_F(ExtensionsTest, ParallelTopKMatchesReference) {
  ParallelTopK::Options options;
  options.base = BaseOptions(1000, 64 * 1024);
  options.num_workers = 4;
  auto op = ParallelTopK::Make(options);
  ASSERT_TRUE(op.ok());

  DatasetSpec spec;
  spec.WithRows(50000).WithSeed(6);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 1000, 0, SortDirection::kAscending),
                 *result);
  // The shared filter must have eliminated a large share of the input.
  EXPECT_GT((*op)->stats().rows_eliminated_input +
                (*op)->stats().rows_eliminated_spill,
            20000u);
  ASSERT_TRUE((*op)->filter()->cutoff().has_value());
}

TEST_F(ExtensionsTest, ParallelTopKSingleWorkerDegeneratesGracefully) {
  ParallelTopK::Options options;
  options.base = BaseOptions(200, 32 * 1024);
  options.num_workers = 1;
  auto op = ParallelTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(10000).WithSeed(7);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 200, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(ExtensionsTest, ParallelSharedFilterRetainsLikeSingleThread) {
  // Sec 4.4: sharing the histogram priority queue keeps the retained row
  // count near single-thread levels; independent filters retain far more.
  DatasetSpec spec;
  spec.WithRows(60000).WithSeed(8);
  auto rows = MaterializeDataset(spec);

  auto run = [&](size_t workers, bool shared) -> uint64_t {
    ParallelTopK::Options options;
    options.base = BaseOptions(2000, 64 * 1024);
    options.num_workers = workers;
    options.share_filter = shared;
    auto op = ParallelTopK::Make(options);
    EXPECT_TRUE(op.ok());
    for (const Row& row : rows) {
      EXPECT_TRUE((*op)->Consume(row).ok());
    }
    auto result = (*op)->Finish();
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->size(), 2000u);
    return (*op)->stats().rows_spilled;
  };

  const uint64_t single = run(1, true);
  const uint64_t shared4 = run(4, true);
  const uint64_t independent4 = run(4, false);
  EXPECT_LT(shared4, 2 * single);        // near single-thread retention
  EXPECT_GT(independent4, shared4);      // independent filters retain more
}

TEST_F(ExtensionsTest, ParallelIndependentFiltersStillCorrect) {
  ParallelTopK::Options options;
  options.base = BaseOptions(500, 32 * 1024);
  options.num_workers = 3;
  options.share_filter = false;
  auto op = ParallelTopK::Make(options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(20000).WithSeed(9);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok());
  ExpectSameRows(ReferenceTopK(rows, 500, 0, SortDirection::kAscending),
                 *result);
  EXPECT_TRUE((*op)->stats().final_cutoff.has_value());
}

TEST_F(ExtensionsTest, ParallelTopKRejectsOversizedPayloadAtConsume) {
  // The oversized row fails the Consume that delivers it, and only that
  // row: the query goes on and still returns the exact top-k.
  ParallelTopK::Options options;
  options.base = BaseOptions(100, 32 * 1024);
  options.num_workers = 2;
  auto op = ParallelTopK::Make(options);
  ASSERT_TRUE(op.ok());
  Status status =
      (*op)->Consume(Row(-1.0, 0, std::string(kMaxRowPayloadBytes + 1, 'x')));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  DatasetSpec spec;
  spec.WithRows(5000).WithSeed(10);
  auto rows = MaterializeDataset(spec);
  for (const Row& row : rows) {
    ASSERT_TRUE((*op)->Consume(row).ok());
  }
  auto result = (*op)->Finish();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRows(ReferenceTopK(rows, 100, 0, SortDirection::kAscending),
                 *result);
}

TEST_F(ExtensionsTest, ParallelTopKRejectsZeroWorkers) {
  ParallelTopK::Options options;
  options.base = BaseOptions(10);
  options.num_workers = 0;
  EXPECT_FALSE(ParallelTopK::Make(options).ok());
}

TEST_F(ExtensionsTest, SharedCutoffFilterThreadSafety) {
  CutoffFilter::Options options;
  options.k = 1000;
  options.target_buckets_per_run = 10;
  options.target_run_rows = 100;
  SharedCutoffFilter filter(options);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&filter, t] {
      Random rng(t);
      for (int i = 0; i < 5000; ++i) {
        const double key = rng.NextDouble();
        if (!filter.EliminateKey(key)) {
          filter.RowSpilled(key);
        }
        if (i % 200 == 199) filter.RunFinished();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(filter.cutoff().has_value());
  EXPECT_GT(*filter.cutoff(), 0.0);
  EXPECT_LE(*filter.cutoff(), 1.0);
}

}  // namespace
}  // namespace topk
