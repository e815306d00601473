#ifndef TOPK_TOPK_HEAP_TOPK_H_
#define TOPK_TOPK_HEAP_TOPK_H_

#include <memory>
#include <optional>
#include <vector>

#include "topk/topk_operator.h"

namespace topk {

/// The state of the in-memory top-k algorithm (Sec 2.3): a query-order
/// max-heap of the best `capacity` (k + offset) rows, whose top — the worst
/// kept row — is the cutoff key, plus, WITH TIES, the rows whose key equals
/// the top's but which did not displace anything. HeapTopK and the
/// histogram operator's in-memory phase share it; each decides what an
/// overflow of its memory budget means.
class BoundedTopKHeap {
 public:
  enum class Outcome {
    kKept,
    /// The row lies beyond the cutoff and was dropped.
    kEliminated,
    /// Keeping the row would exceed the memory limit; the heap and the row
    /// are unchanged.
    kOverflow,
  };

  BoundedTopKHeap(SortDirection direction, uint64_t capacity, bool with_ties);

  /// Offers `row` (moved from only when kept) under `memory_limit` bytes.
  /// Every row this drops — `row` itself, or retained ties of a boundary
  /// key that just sharpened — is added to `*eliminated`.
  Outcome Offer(Row& row, size_t memory_limit, uint64_t* eliminated);

  /// The cutoff key once the heap holds `capacity` rows.
  std::optional<double> cutoff() const;
  /// Bytes charged for the kept rows (footprint plus per-row overhead).
  size_t bytes() const { return bytes_; }
  /// Kept rows, ties included.
  size_t size() const { return heap_.size() + ties_.size(); }

  /// Removes and returns every kept row: the heap worst-first, then the
  /// ties.
  std::vector<Row> TakeRows();

 private:
  RowComparator comparator_;
  uint64_t capacity_;
  bool with_ties_;
  /// std::push_heap/pop_heap order under comparator_: front() is the worst
  /// kept row.
  std::vector<Row> heap_;
  /// WITH TIES: boundary-key duplicates beyond the heap. Unbounded in
  /// count — the Sec 2.3 robustness hazard — but charged like heap rows.
  std::vector<Row> ties_;
  size_t bytes_ = 0;
};

/// The standard in-memory top-k algorithm (Sec 2.3): a priority queue holds
/// the best k+offset rows seen so far, its top entry is the current worst
/// kept row and serves as the cutoff key for eliminating further input.
///
/// Perfectly suitable while the requested output fits in memory — and, as
/// the paper stresses, neither scalable nor robust beyond that: when the
/// heap would exceed the memory budget this operator fails with
/// OutOfMemory (unless allow_unbounded_memory is set, as in the Figure 6
/// provisioning study). Engines then fall back to an external operator.
class HeapTopK : public TopKOperator {
 public:
  static Result<std::unique_ptr<HeapTopK>> Make(const TopKOptions& options);

  Status Consume(Row row) override;
  Result<std::vector<Row>> Finish() override;
  std::string name() const override { return "heap"; }

  /// Current cutoff (top of the heap) once the heap holds k+offset rows.
  std::optional<double> cutoff() const { return heap_.cutoff(); }

 private:
  explicit HeapTopK(const TopKOptions& options);

  Status ConsumeImpl(Row row);
  Result<std::vector<Row>> FinishImpl();

  TopKOptions options_;
  BoundedTopKHeap heap_;
  /// Arbiter lease covering heap_.bytes() (detached when the effective
  /// arbiter is the unlimited global one — it still accounts).
  MemoryLease lease_;
  bool finished_ = false;
};

}  // namespace topk

#endif  // TOPK_TOPK_HEAP_TOPK_H_
