#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "core/fractured_upi.h"
#include "core/upi.h"

namespace upi::core {

TableStats TableStats::Of(const Upi& upi) {
  TableStats s;
  s.table_bytes = upi.heap_tree()->size_bytes();
  s.num_leaf_pages = upi.heap_tree()->num_leaf_pages();
  s.btree_height = upi.heap_tree()->height();
  s.num_fractures = 1;
  s.page_size = upi.options().page_size;
  return s;
}

TableStats TableStats::Of(const FracturedUpi& fractured) {
  TableStats s;
  s.page_size = fractured.options().page_size;
  uint32_t max_h = 1;
  uint32_t n = 0;
  fractured.ForEachFractureShared([&](const Upi& u) {
    TableStats m = Of(u);
    s.table_bytes += m.table_bytes;
    s.num_leaf_pages += m.num_leaf_pages;
    max_h = std::max(max_h, m.btree_height);
    ++n;
  });
  s.btree_height = max_h;
  s.num_fractures = n;
  return s;
}

double CostModel::CostScanMs() const { return params_.ReadMs(stats_.table_bytes); }

double CostModel::LookupOverheadMs() const {
  return params_.init_ms + stats_.btree_height * params_.seek_ms;
}

double CostModel::FracturedQueryMs(double selectivity) const {
  return CostScanMs() * selectivity + stats_.num_fractures * LookupOverheadMs();
}

double CostModel::MergeMs() const { return MergeMs(0.0); }

double CostModel::MergeMs(double gc_pressure) const {
  if (gc_pressure < 0.0) gc_pressure = 0.0;
  if (gc_pressure > 1.0) gc_pressure = 1.0;
  // Only the write half is GC-amplified; the read half streams at device
  // rate regardless of FTL debt. Pressure 0 is the paper's exact Costmerge.
  double write_amp = 1.0 + profile_.gc_write_amp_max * gc_pressure;
  return static_cast<double>(stats_.table_bytes) / (1024.0 * 1024.0) *
         (params_.read_ms_per_mb + params_.write_ms_per_mb * write_amp);
}

double CostModel::SaturationCeilingMs() const { return CostScanMs(); }

double CostModel::DeviceCalibratedK() const {
  double ceiling = SaturationCeilingMs();
  if (ceiling <= 0) return 1.0;
  double per_pointer = params_.min_seek_ms + params_.ReadMs(stats_.page_size);
  return 2.0 * per_pointer / ceiling;
}

double CostModel::PaperHeuristicK() const {
  double x0 = 0.05 * static_cast<double>(stats_.num_leaf_pages);
  if (x0 <= 0) return 1.0;
  // (1 - e^{-k x0}) / (1 + e^{-k x0}) = 0.99  =>  e^{-k x0} = 1/199.
  return std::log(199.0) / x0;
}

double CostModel::PointerFollowMs(double num_pointers) const {
  if (num_pointers <= 0) return 0.0;
  double k = SigmoidK();
  double e = std::exp(-k * num_pointers);
  return SaturationCeilingMs() * (1.0 - e) / (1.0 + e);
}

double CostModel::CutoffQueryMs(double selectivity, double num_pointers) const {
  return CostScanMs() * selectivity + 2.0 * LookupOverheadMs() +
         PointerFollowMs(num_pointers);
}

}  // namespace upi::core
