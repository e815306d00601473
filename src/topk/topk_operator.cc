#include "topk/topk_operator.h"

#include <algorithm>

namespace topk {

Status ValidateTopKOptions(const TopKOptions& options,
                           bool requires_storage) {
  if (options.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (options.memory_limit_bytes == 0 && !options.allow_unbounded_memory) {
    return Status::InvalidArgument("memory limit must be positive");
  }
  if (requires_storage) {
    if (options.env == nullptr) {
      return Status::InvalidArgument(
          "external top-k operators need a StorageEnv");
    }
    if (options.spill_dir.empty()) {
      return Status::InvalidArgument(
          "external top-k operators need a spill directory");
    }
    if (options.merge_fan_in < 2) {
      return Status::InvalidArgument("merge fan-in must be at least 2");
    }
  }
  return Status::OK();
}

std::vector<Row> SortAndSlice(std::vector<Row> rows,
                              const TopKOptions& options) {
  std::sort(rows.begin(), rows.end(), RowComparator(options.direction));
  const size_t begin = std::min<size_t>(options.offset, rows.size());
  size_t end = begin + std::min<size_t>(options.k, rows.size() - begin);
  if (options.with_ties && end > begin) {
    const double boundary = rows[end - 1].key;
    while (end < rows.size() && rows[end].key == boundary) ++end;
  }
  rows.erase(rows.begin() + end, rows.end());
  rows.erase(rows.begin(), rows.begin() + begin);
  return rows;
}

}  // namespace topk
