#include "exec/cursor.h"

#include <utility>

#include "exec/operators.h"
#include "exec/topk.h"

namespace upi::exec {

namespace {

/// The probe cursor `plan`'s kind names, with no limit or predicate set.
std::unique_ptr<engine::ResultCursor> OpenPlanCursor(
    const engine::AccessPath& path, const engine::Plan& plan) {
  switch (plan.kind) {
    case engine::PlanKind::kPrimaryProbe:
      return path.OpenPtqStream(plan.value, plan.qt);
    case engine::PlanKind::kSecondaryFirstPointer:
      return path.OpenSecondaryStream(plan.column, plan.value, plan.qt,
                                      core::SecondaryAccessMode::kFirstPointer);
    case engine::PlanKind::kSecondaryTailored:
      return path.OpenSecondaryStream(plan.column, plan.value, plan.qt,
                                      core::SecondaryAccessMode::kTailored);
    case engine::PlanKind::kHeapScan: {
      int column = plan.column >= 0 ? plan.column : path.primary_column();
      return std::make_unique<engine::RowsCursor>(
          [&path, column, value = plan.value, qt = plan.qt](
              size_t, std::vector<core::PtqMatch>* out) {
            return ScanFilter(path, column, value, qt, out);
          },
          /*k_bounded=*/false);
    }
    case engine::PlanKind::kTopKDirect:
      return path.OpenTopKStream(plan.value);
    case engine::PlanKind::kTopKEstimatedThreshold:
    case engine::PlanKind::kTopKDecreasingThreshold:
      // Same descent loop for both threshold strategies; they differ in the
      // planner-set starting threshold (histogram estimate vs. fixed 0.5).
      return std::make_unique<engine::RowsCursor>(
          [&path, value = plan.value, initial_qt = plan.initial_qt](
              size_t k, std::vector<core::PtqMatch>* out) {
            return TopKByDecreasingThreshold(path, value, k, initial_qt, out);
          },
          /*k_bounded=*/true);
  }
  return engine::RowsCursor::Failed(Status::Internal("unknown plan kind"));
}

}  // namespace

Result<std::unique_ptr<engine::ResultCursor>> OpenCursor(
    const engine::AccessPath& path, const engine::Plan& plan,
    std::function<bool(const catalog::Tuple&)> predicate) {
  std::unique_ptr<engine::ResultCursor> cursor = OpenPlanCursor(path, plan);
  UPI_RETURN_NOT_OK(cursor->status());
  if (predicate) cursor->SetPredicate(std::move(predicate));
  size_t limit = plan.limit;
  if (plan.k > 0 && (limit == 0 || plan.k < limit)) limit = plan.k;
  cursor->SetLimit(limit);
  return cursor;
}

}  // namespace upi::exec
