#ifndef TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
#define TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_

#include <memory>

#include "topk/external_topk.h"

namespace topk {

/// The traditional fallback algorithm (Sec 2.4), as found in e.g.
/// PostgreSQL: once the input exceeds memory, externally sort *all* of it —
/// memory loads into full-size runs with no input filtering and no run-size
/// limit — then merge and stop after k rows. Its cost is proportional to
/// the input, which is precisely the performance cliff the paper sets out
/// to remove.
///
/// As a cutoff policy it is the empty one: ExternalTopK's defaults plus a
/// classic smallest-runs-first merge plan. If the whole input happens to
/// fit in memory, it is sorted in place and nothing spills.
class TraditionalExternalTopK : public ExternalTopK {
 public:
  static Result<std::unique_ptr<TraditionalExternalTopK>> Make(
      const TopKOptions& options);

  /// Reconstructs the merge phase of a suspended or crashed execution from
  /// the manifest in `options.manifest_filename`. Runs failing verification
  /// are quarantined and reported via `report`. The resumed operator
  /// accepts no further input; Finish() merges the surviving runs.
  static Result<std::unique_ptr<TraditionalExternalTopK>> ResumeFromManifest(
      const TopKOptions& options, RestoreReport* report = nullptr) {
    return Resume<TraditionalExternalTopK>(options, report);
  }

  std::string name() const override { return "traditional-external"; }

 private:
  explicit TraditionalExternalTopK(const TopKOptions& options);

  void ConfigureMergePlan(MergePlannerOptions* planner) const override;
};

}  // namespace topk

#endif  // TOPK_TOPK_TRADITIONAL_EXTERNAL_TOPK_H_
