#ifndef TOPK_SORT_REPLACEMENT_SELECTION_H_
#define TOPK_SORT_REPLACEMENT_SELECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sort/run_generation.h"

namespace topk {

/// Replacement-selection run generation (Knuth Vol. 3; used by the paper's
/// production implementation, Sec 5.1.2). Rows live in a selection heap;
/// when memory is full the smallest row is spilled to the current run.
/// Incoming rows that can still extend the current run (they sort at or
/// after the last spilled row) are tagged for it; smaller rows are deferred
/// to the next run. Run generation therefore never stalls the input
/// ("pipelined operation", Sec 2.1) and runs average twice the memory size
/// on random input.
///
/// Variable-size rows are supported: the memory budget is tracked in bytes,
/// so the number of buffered rows floats with row sizes.
///
/// The heap holds only 24-byte (normalized key, run, slot) entries; the
/// rows stay put in a slot vector until they are spilled.
///
/// Physical runs are additionally cut at `run_row_limit` rows (the top-k
/// "limit run size to k" optimization); a cut mid-sequence is safe because
/// rows of one logical run pop in sorted order, so any contiguous slice of
/// them is itself a sorted run.
class ReplacementSelectionRunGenerator : public RunGenerator {
 public:
  ReplacementSelectionRunGenerator(SpillManager* spill,
                                   const RowComparator& comparator,
                                   const RunGeneratorOptions& options);

  Status Add(Row row) override;
  Status Flush() override;
  void SetCancel(const CancellationToken* cancel) override {
    options_.cancel = cancel;
  }
  const RunGeneratorStats& stats() const override { return stats_; }

  /// Logical run sequence currently being written (for tests).
  uint64_t current_run_seq() const { return current_seq_; }

 private:
  /// One selection-heap entry: the row's sort position plus the slot that
  /// holds the row itself. Trivially copyable and 24 bytes, so every heap
  /// sift moves a small key/index pair instead of a whole row with its
  /// payload string (the key/pointer layout of Polyntsov et al.).
  struct Entry {
    /// The row's sort order, encoded once at Add time: every heap sift
    /// compares two integers instead of re-running RowComparator, and a
    /// NaN key takes its defined place instead of corrupting the heap
    /// invariant.
    NormalizedKey norm;
    /// Low 32 bits of the logical run sequence. The heap only ever holds
    /// rows of the current run and the next one, so the wrapping
    /// difference orders them exactly.
    uint32_t run_seq;
    /// Index into slots_.
    uint32_t slot;
  };
  static_assert(sizeof(Entry) == 24);

  /// Orders the selection heap: smallest (run_seq, normalized key) on top.
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.run_seq != b.run_seq) {
        return static_cast<int32_t>(a.run_seq - b.run_seq) > 0;
      }
      return b.norm < a.norm;
    }
  };

  /// Spills the heap minimum, honoring elimination, run boundaries, and the
  /// physical row limit.
  Status SpillOne();
  Status CloseRun();
  Status EnsureWriter();

  SpillManager* spill_;
  RowComparator comparator_;
  RunGeneratorOptions options_;
  RunGeneratorStats stats_;

  /// Binary min-heap (std::push_heap/pop_heap under EntryGreater) over the
  /// buffered rows.
  std::vector<Entry> heap_;
  /// The buffered rows, addressed by Entry::slot. A spilled row is moved
  /// out, so its payload is freed at spill time, and its slot is recycled
  /// through free_slots_.
  std::vector<Row> slots_;
  std::vector<uint32_t> free_slots_;
  size_t buffered_bytes_ = 0;
  /// Lease covering buffered_bytes_ (detached without an arbiter).
  MemoryLease lease_;

  uint64_t current_seq_ = 0;
  bool has_last_spilled_ = false;
  /// Normalized key of the last row written to the current logical run;
  /// the can-this-row-extend-the-run test is one integer compare.
  NormalizedKey last_spilled_norm_;

  std::unique_ptr<RunWriter> writer_;
  uint64_t rows_in_physical_run_ = 0;
};

}  // namespace topk

#endif  // TOPK_SORT_REPLACEMENT_SELECTION_H_
