/// Storage durability features: run checksums, verification, disk quotas.

#include <algorithm>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/random.h"
#include "io/spill_manager.h"
#include "io/spill_quota.h"
#include "tests/test_util.h"
#include "topk/operator_factory.h"

namespace topk {
namespace {

using testing_util::MaterializeDataset;
using testing_util::ScratchDir;

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32c(0, data, 9), 0xE3069283u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 Appendix B.4 test vectors, through both implementations.
  std::vector<unsigned char> zeros(32, 0x00), ones(32, 0xFF), ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  for (const auto crc : {Crc32c, Crc32cTable}) {
    EXPECT_EQ(crc(0, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(0, ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(0, ascending.data(), ascending.size()), 0x46DD794Eu);
    EXPECT_EQ(crc(0, "123456789", 9), 0xE3069283u);
  }
}

TEST(Crc32cTest, MatchesTableAtEveryLengthAndAlignment) {
  // Crc32c takes the 8-byte SSE4.2 path where the CPU has it; every length
  // (word loop plus byte tail) at every start offset (unaligned loads) must
  // agree with the table implementation, also when chained from a nonzero
  // seed.
  Random rng(3720);
  std::vector<unsigned char> buffer(8 + 300);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.NextUint64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const unsigned char* data = buffer.data() + offset;
      ASSERT_EQ(Crc32c(0, data, length), Crc32cTable(0, data, length))
          << "offset=" << offset << " length=" << length;
      ASSERT_EQ(Crc32c(0xDEADBEEFu, data, length),
                Crc32cTable(0xDEADBEEFu, data, length))
          << "offset=" << offset << " length=" << length;
    }
  }
}

TEST(Crc32cTest, ChainedOverRandomSplitsMatchesOneShot) {
  Random rng(7);
  std::vector<unsigned char> data(4096);
  for (auto& byte : data) byte = static_cast<unsigned char>(rng.NextUint64());
  const uint32_t one_shot = Crc32cTable(0, data.data(), data.size());
  EXPECT_EQ(Crc32c(0, data.data(), data.size()), one_shot);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t chained = 0;
    size_t pos = 0;
    while (pos < data.size()) {
      const size_t piece =
          std::min<size_t>(rng.NextUint64(40), data.size() - pos);
      chained = Crc32c(chained, data.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(chained, one_shot) << "trial " << trial;
  }
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "histogram-guided top-k external merge sort";
  const uint32_t one_shot = Crc32c(0, data.data(), data.size());
  uint32_t incremental = 0;
  for (char c : data) incremental = Crc32c(incremental, &c, 1);
  EXPECT_EQ(incremental, one_shot);
}

TEST(Crc32cTest, EmptyInputIsZeroNoop) {
  EXPECT_EQ(Crc32c(0, "", 0), 0u);
  EXPECT_EQ(Crc32c(123u, "", 0), 123u);
}

TEST(Crc32cTest, SensitiveToSingleBit) {
  std::string a = "payload", b = "paylobd";
  EXPECT_NE(Crc32c(0, a.data(), a.size()), Crc32c(0, b.data(), b.size()));
}

class RunVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto spill = SpillManager::Create(&env_, scratch_.str() + "/spill");
    ASSERT_TRUE(spill.ok());
    spill_ = std::move(*spill);
  }

  RunMeta WriteRun(int rows) {
    RowComparator cmp;
    auto writer = spill_->NewRun(cmp);
    EXPECT_TRUE(writer.ok());
    for (int i = 0; i < rows; ++i) {
      EXPECT_TRUE(
          (*writer)->Append(Row(i, i, "payload" + std::to_string(i))).ok());
    }
    auto meta = (*writer)->Finish();
    EXPECT_TRUE(meta.ok());
    spill_->AddRun(*meta);
    return *meta;
  }

  ScratchDir scratch_;
  StorageEnv env_;
  std::unique_ptr<SpillManager> spill_;
};

TEST_F(RunVerifyTest, IntactRunVerifies) {
  RunMeta meta = WriteRun(500);
  EXPECT_NE(meta.crc32c, 0u);
  EXPECT_TRUE(spill_->VerifyRun(meta, RowComparator()).ok());
}

TEST_F(RunVerifyTest, FlippedByteDetected) {
  RunMeta meta = WriteRun(500);
  {
    // Corrupt one payload byte in the middle of the file.
    std::fstream file(meta.path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(meta.bytes / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(static_cast<std::streamoff>(meta.bytes / 2));
    byte ^= 0x40;
    file.write(&byte, 1);
  }
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST_F(RunVerifyTest, TruncationDetected) {
  RunMeta meta = WriteRun(500);
  std::filesystem::resize_file(meta.path, meta.bytes - 10);
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_F(RunVerifyTest, WrongRowCountDetected) {
  RunMeta meta = WriteRun(100);
  meta.rows = 99;
  const Status status = spill_->VerifyRun(meta, RowComparator());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(DiskQuotaTest, WritesBeyondQuotaFail) {
  StorageEnv env;
  ScratchDir scratch;
  const std::string path = scratch.str() + "/f";
  auto file = env.NewWritableFile(path);
  ASSERT_TRUE(file.ok());
  SpillQuota quota(/*quota_bytes=*/1024);
  QuotaChargingWritableFile charged(std::move(*file), path, &quota);
  ASSERT_TRUE(charged.Append(std::string(1000, 'x')).ok());
  const Status status = charged.Append(std::string(100, 'x'));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // The refused block never reached storage.
  EXPECT_EQ(quota.charged_bytes(), 1000u);
  ASSERT_TRUE(charged.Close().ok());
  EXPECT_EQ(env.stats()->bytes_written(), 1000u);
}

TEST(DiskQuotaTest, OperatorSurfacesQuotaExhaustion) {
  StorageEnv env;
  ScratchDir scratch;
  TopKOptions options;
  options.k = 2000;
  options.memory_limit_bytes = 16 * 1024;
  options.env = &env;
  options.spill_dir = scratch.str();
  options.spill_quota_bytes = 64 * 1024;  // far below the spill volume
  auto op = MakeTopKOperator(TopKAlgorithm::kHistogram, options);
  ASSERT_TRUE(op.ok());
  DatasetSpec spec;
  spec.WithRows(100000).WithPayload(32, 32).WithSeed(9);
  auto rows = MaterializeDataset(spec);
  Status status = Status::OK();
  for (const Row& row : rows) {
    status = (*op)->Consume(row);
    if (!status.ok()) break;
  }
  if (status.ok()) status = (*op)->Finish().status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
}

TEST(DiskQuotaTest, HistogramFitsWhereTraditionalExceedsQuota) {
  // The paper's operational argument in miniature: with a bounded scratch
  // volume, the filtering operator completes while the full sort cannot.
  ScratchDir scratch;
  DatasetSpec spec;
  spec.WithRows(60000).WithPayload(32, 32).WithSeed(10);
  auto rows = MaterializeDataset(spec);

  for (TopKAlgorithm algorithm :
       {TopKAlgorithm::kTraditionalExternal, TopKAlgorithm::kHistogram}) {
    StorageEnv env;
    TopKOptions options;
    options.k = 1000;
    options.memory_limit_bytes = 16 * 1024;
    options.env = &env;
    options.spill_dir = scratch.str() + "/" + TopKAlgorithmName(algorithm);
    options.spill_quota_bytes = 2 << 20;  // 2 MiB scratch
    auto op = MakeTopKOperator(algorithm, options);
    ASSERT_TRUE(op.ok());
    Status status = Status::OK();
    for (const Row& row : rows) {
      status = (*op)->Consume(row);
      if (!status.ok()) break;
    }
    if (status.ok()) status = (*op)->Finish().status();
    if (algorithm == TopKAlgorithm::kTraditionalExternal) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }
}

}  // namespace
}  // namespace topk
