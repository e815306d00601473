#include "topk/traditional_external_topk.h"

#include <limits>

namespace topk {

TraditionalExternalTopK::TraditionalExternalTopK(const TopKOptions& options)
    : ExternalTopK(options, InMemoryPhase::kBuffer, "traditional") {}

Result<std::unique_ptr<TraditionalExternalTopK>> TraditionalExternalTopK::Make(
    const TopKOptions& options) {
  TOPK_RETURN_NOT_OK(ValidateTopKOptions(options, /*requires_storage=*/true));
  return std::unique_ptr<TraditionalExternalTopK>(
      new TraditionalExternalTopK(options));
}

void TraditionalExternalTopK::ConfigureMergePlan(
    MergePlannerOptions* planner) const {
  // Vanilla sort: reduce the run count as cheaply as possible, and keep
  // every row of an intermediate run.
  planner->policy = MergePolicy::kSmallestRunsFirst;
  planner->intermediate_limit = std::numeric_limits<uint64_t>::max();
  planner->with_ties = false;
}

}  // namespace topk
