#include "maintenance/merge_policy.h"

#include <algorithm>

#include "core/cost_model.h"
#include "core/fractured_upi.h"

namespace upi::maintenance {

Decision MergePolicy::DecideFlush(const core::FracturedUpi& table) const {
  Decision d;
  core::FracturedUpi::BufferWatermarks w = table.buffer_watermarks();
  if (w.inserts >= options_.flush_max_buffered_tuples) {
    d.action = ActionKind::kFlush;
    d.reason = "buffered-tuple watermark";
  } else if (w.bytes >= options_.flush_max_buffered_bytes) {
    d.action = ActionKind::kFlush;
    d.reason = "buffered-byte watermark";
  } else if (w.deletes >= options_.flush_max_buffered_deletes) {
    d.action = ActionKind::kFlush;
    d.reason = "buffered-delete watermark";
  }
  return d;
}

double MergePolicy::Selectivity(const core::FracturedUpi& table) const {
  if (options_.reference_value.empty()) return options_.reference_selectivity;
  return table.EstimateSelectivity(options_.reference_value,
                                   options_.reference_qt);
}

double MergePolicy::ExpectedProbed(const core::FracturedUpi& table) const {
  // With pruning enabled and a concrete reference query, the fracture tax is
  // paid only by the fractures the summaries cannot rule out. Without a
  // reference value there is nothing to prune against: fall back to Nfrac.
  double nfrac = static_cast<double>(table.num_fractures());
  if (!table.options().enable_pruning || options_.reference_value.empty()) {
    return nfrac;
  }
  core::PruneEstimate pe = table.EstimatePrune(-1, options_.reference_value,
                                               options_.reference_qt);
  // Floor at one probe, never at Nfrac: a reference query every summary
  // rules out (probed == 0) is the *cheapest* layout, not the most
  // deteriorated one.
  return pe.probed_fractures > 0 ? pe.probed_fractures : 1.0;
}

namespace {

/// The one pruning-aware Cost_frac formula both PredictQueryMs and
/// DecideMerge price with: Costscan * Selectivity + probed * (Costinit +
/// H * Tseek).
double QueryMs(const core::CostModel& model, double selectivity,
               double probed_fractures) {
  return model.CostScanMs() * selectivity +
         probed_fractures * model.LookupOverheadMs();
}

}  // namespace

double MergePolicy::PredictQueryMs(const core::FracturedUpi& table) const {
  core::CostModel model(profile_, core::TableStats::Of(table));
  return QueryMs(model, Selectivity(table), ExpectedProbed(table));
}

Decision MergePolicy::DecideMerge(const core::FracturedUpi& table) const {
  Decision d;
  core::TableStats stats = core::TableStats::Of(table);
  core::CostModel model(profile_, stats);
  double sel = Selectivity(table);
  d.expected_probed = ExpectedProbed(table);
  // Cost_frac with the pruning-aware fan-out: the second term is the tax a
  // query actually pays, not the tax the layout could charge.
  d.overhead_ms = d.expected_probed * model.LookupOverheadMs();
  d.predicted_query_ms = QueryMs(model, sel, d.expected_probed);
  core::TableStats merged_stats = stats;
  merged_stats.num_fractures = 1;
  d.merged_query_ms =
      core::CostModel(profile_, merged_stats).FracturedQueryMs(sel);
  if (!options_.merges_enabled) return d;

  const size_t deltas = table.snapshot()->num_deltas();
  if (deltas < 1) return d;  // nothing to repay

  // Full merge past the deterioration knee: the query is paying several times
  // what it would on a clean layout; partial repayments can't close that gap
  // (the main fracture dominates and partial merges never touch it).
  if (d.predicted_query_ms >
      options_.full_merge_deterioration * d.merged_query_ms) {
    d.action = ActionKind::kMergeAll;
    d.reason = "deterioration threshold";
    return d;
  }

  // Partial merge when the fracture tax dominates the predicted cost. Needs
  // at least two deltas to fold.
  if (deltas >= 2 && d.overhead_ms > options_.partial_merge_overhead_fraction *
                                         d.predicted_query_ms) {
    d.action = ActionKind::kMergePartial;
    d.merge_count = std::min(options_.partial_merge_fanin, deltas);
    d.reason = "fracture-overhead fraction";
  }
  return d;
}

}  // namespace upi::maintenance
