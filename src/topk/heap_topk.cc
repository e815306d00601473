#include "topk/heap_topk.h"

#include <algorithm>
#include <limits>

#include "common/memory_accounting.h"
#include "obs/obs_context.h"
#include "row/serialization.h"

namespace topk {

namespace {
size_t RowCost(const Row& row) {
  return row.MemoryFootprint() + kPerRowOverheadBytes;
}
}  // namespace

BoundedTopKHeap::BoundedTopKHeap(SortDirection direction, uint64_t capacity,
                                 bool with_ties)
    : comparator_(direction), capacity_(capacity), with_ties_(with_ties) {}

std::optional<double> BoundedTopKHeap::cutoff() const {
  if (heap_.empty() || heap_.size() < capacity_) return std::nullopt;
  return heap_.front().key;
}

BoundedTopKHeap::Outcome BoundedTopKHeap::Offer(Row& row, size_t memory_limit,
                                                uint64_t* eliminated) {
  const size_t cost = RowCost(row);
  if (heap_.size() < capacity_) {
    if (bytes_ + cost > memory_limit) return Outcome::kOverflow;
    bytes_ += cost;
    heap_.push_back(std::move(row));
    std::push_heap(heap_.begin(), heap_.end(), comparator_);
    return Outcome::kKept;
  }
  if (with_ties_ && row.key == heap_.front().key) {
    // A key-tie of the current boundary row must be retained: the number
    // of duplicates is unknown, so this buffer can grow without bound —
    // the in-memory algorithm "may unexpectedly fail" (Sec 2.3).
    if (bytes_ + cost > memory_limit) return Outcome::kOverflow;
    bytes_ += cost;
    ties_.push_back(std::move(row));
    return Outcome::kKept;
  }
  if (!comparator_.Less(row, heap_.front())) {
    ++*eliminated;
    return Outcome::kEliminated;
  }
  const size_t evicted_cost = RowCost(heap_.front());
  if (bytes_ - evicted_cost + cost > memory_limit) {
    return Outcome::kOverflow;  // variable-size rows: the newcomer is larger
  }
  std::pop_heap(heap_.begin(), heap_.end(), comparator_);
  Row evicted = std::move(heap_.back());
  heap_.back() = std::move(row);
  std::push_heap(heap_.begin(), heap_.end(), comparator_);
  bytes_ = bytes_ - evicted_cost + cost;
  if (with_ties_ && evicted.key == heap_.front().key) {
    // The boundary key is unchanged: the evicted row is now a retained tie.
    // This can overshoot memory_limit by at most the boundary key's
    // duplicates already in the heap; the next tie takes the checked path
    // above.
    bytes_ += evicted_cost;
    ties_.push_back(std::move(evicted));
  } else if (with_ties_ && !ties_.empty()) {
    // The boundary key just became sharper: retained ties of the old
    // boundary are all beyond the output now.
    for (const Row& tie : ties_) bytes_ -= RowCost(tie);
    *eliminated += ties_.size();
    ties_.clear();
  }
  return Outcome::kKept;
}

std::vector<Row> BoundedTopKHeap::TakeRows() {
  std::vector<Row> rows;
  rows.reserve(size());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), comparator_);
    rows.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  rows.insert(rows.end(), std::make_move_iterator(ties_.begin()),
              std::make_move_iterator(ties_.end()));
  heap_ = std::vector<Row>();
  ties_ = std::vector<Row>();
  bytes_ = 0;
  return rows;
}

HeapTopK::HeapTopK(const TopKOptions& options)
    : options_(options),
      heap_(options.direction, options.output_rows(), options.with_ties) {}

Result<std::unique_ptr<HeapTopK>> HeapTopK::Make(const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/false));
  return std::unique_ptr<HeapTopK>(new HeapTopK(options));
}

Status HeapTopK::Consume(Row row) {
  return RunWithAllocGuard("heap", "Consume",
                           [&] { return ConsumeImpl(std::move(row)); });
}

Status HeapTopK::ConsumeImpl(Row row) {
  if (finished_) {
    return Status::FailedPrecondition("Consume after Finish");
  }
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    // Purely in-memory: nothing to persist, so cancellation is just an
    // early return (one relaxed load when the token is quiet).
    return options_.cancel->status();
  }
  ObsScope obs_scope(options_.obs);
  Stopwatch watch;
  TOPK_RETURN_NOT_OK(ValidateRowPayload(row));
  MemoryArbiter* arbiter = options_.effective_arbiter();
  if (arbiter != nullptr && !lease_.attached()) {
    TOPK_ASSIGN_OR_RETURN(lease_, arbiter->Acquire("heap-topk", 0));
  }
  ++stats_.rows_consumed;
  const size_t limit = options_.allow_unbounded_memory
                           ? std::numeric_limits<size_t>::max()
                           : options_.memory_limit_bytes;
  const bool saturated = heap_.cutoff().has_value();
  // An evicted boundary row that became a tie may push the heap past its
  // budget without an overflow; the bare in-memory algorithm fails then too.
  if (heap_.Offer(row, limit, &stats_.rows_eliminated_input) ==
          BoundedTopKHeap::Outcome::kOverflow ||
      heap_.bytes() > limit) {
    if (saturated && options_.with_ties) {
      return Status::OutOfMemory(
          "WITH TIES duplicates of the boundary key exceed operator "
          "memory; an external top-k operator is required");
    }
    return Status::OutOfMemory(
        "requested output does not fit in operator memory (" +
        std::to_string(heap_.size()) + " rows buffered); an external "
        "top-k operator is required");
  }
  TOPK_RETURN_NOT_OK(lease_.EnsureAtLeast(heap_.bytes()));
  lease_.ShrinkTo(heap_.bytes());
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, heap_.bytes());
  stats_.consume_nanos += watch.ElapsedNanos();
  return Status::OK();
}

Result<std::vector<Row>> HeapTopK::Finish() {
  return RunWithAllocGuard("heap", "Finish", [&] { return FinishImpl(); });
}

Result<std::vector<Row>> HeapTopK::FinishImpl() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  if (options_.cancel != nullptr && options_.cancel->ShouldStop()) {
    return options_.cancel->status();
  }
  ObsScope obs_scope(options_.obs);
  Stopwatch watch;
  stats_.final_cutoff = cutoff();
  std::vector<Row> rows = SortAndSlice(heap_.TakeRows(), options_);
  lease_.Release();
  stats_.finish_nanos = watch.ElapsedNanos();
  if (options_.obs != nullptr) {
    options_.obs->NoteMemoryBytes(stats_.peak_memory_bytes);
  }
  return rows;
}

}  // namespace topk
