#include "topk/operator_factory.h"

#include "topk/heap_topk.h"
#include "topk/histogram_topk.h"
#include "topk/optimized_external_topk.h"
#include "topk/traditional_external_topk.h"

namespace topk {

std::string TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kHeap:
      return "heap";
    case TopKAlgorithm::kTraditionalExternal:
      return "traditional-external";
    case TopKAlgorithm::kOptimizedExternal:
      return "optimized-external";
    case TopKAlgorithm::kHistogram:
      return "histogram";
  }
  return "unknown";
}

bool ParseTopKAlgorithm(const std::string& name, TopKAlgorithm* out) {
  if (name == "heap") {
    *out = TopKAlgorithm::kHeap;
  } else if (name == "traditional-external" || name == "traditional") {
    *out = TopKAlgorithm::kTraditionalExternal;
  } else if (name == "optimized-external" || name == "optimized") {
    *out = TopKAlgorithm::kOptimizedExternal;
  } else if (name == "histogram") {
    *out = TopKAlgorithm::kHistogram;
  } else {
    return false;
  }
  return true;
}

namespace {
/// Widens a concrete operator factory result to the TopKOperator interface.
template <typename Op>
Result<std::unique_ptr<TopKOperator>> AsOperator(
    Result<std::unique_ptr<Op>> op) {
  if (!op.ok()) return op.status();
  return std::unique_ptr<TopKOperator>(std::move(op).value());
}
}  // namespace

Result<std::unique_ptr<TopKOperator>> MakeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options) {
  switch (algorithm) {
    case TopKAlgorithm::kHeap:
      return AsOperator(HeapTopK::Make(options));
    case TopKAlgorithm::kTraditionalExternal:
      return AsOperator(TraditionalExternalTopK::Make(options));
    case TopKAlgorithm::kOptimizedExternal:
      return AsOperator(OptimizedExternalTopK::Make(options));
    case TopKAlgorithm::kHistogram:
      return AsOperator(HistogramTopK::Make(options));
  }
  return Status::InvalidArgument("unknown top-k algorithm");
}

Result<std::unique_ptr<TopKOperator>> ResumeTopKOperator(
    TopKAlgorithm algorithm, const TopKOptions& options,
    RestoreReport* report) {
  switch (algorithm) {
    case TopKAlgorithm::kHistogram:
      return AsOperator(HistogramTopK::ResumeFromManifest(options, report));
    case TopKAlgorithm::kTraditionalExternal:
      return AsOperator(
          TraditionalExternalTopK::ResumeFromManifest(options, report));
    case TopKAlgorithm::kOptimizedExternal:
      return AsOperator(
          OptimizedExternalTopK::ResumeFromManifest(options, report));
    case TopKAlgorithm::kHeap:
      break;
  }
  return Status::InvalidArgument(
      "algorithm " + TopKAlgorithmName(algorithm) +
      " does not support manifest resume (supported: histogram, "
      "traditional-external, optimized-external)");
}

}  // namespace topk
