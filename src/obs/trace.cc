#include "obs/trace.h"

#include <utility>

namespace upi::obs {

namespace {
thread_local QueryTrace* g_current_trace = nullptr;
}  // namespace

uint64_t QueryTrace::OpReads() const {
  uint64_t reads = 0;
  for (const TraceOp& op : ops) reads += op.io.reads;
  return reads;
}

QueryTrace* CurrentTrace() {
  return g_current_trace;
}

TraceScope::TraceScope(QueryTrace* trace) : prev_(g_current_trace) {
  g_current_trace = trace;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

TraceOpScope::TraceOpScope() : trace_(CurrentTrace()) {
  if (trace_ != nullptr && trace_->disk != nullptr) {
    start_ = trace_->disk->thread_stats();
  }
}

void TraceOpScope::Finish(std::string label, uint64_t rows, bool pruned) {
  if (trace_ == nullptr) return;
  TraceOp op;
  op.label = std::move(label);
  op.rows = rows;
  op.pruned = pruned;
  if (trace_->disk != nullptr) {
    sim::DiskStats now = trace_->disk->thread_stats();
    op.io = now - start_;
    op.sim_ms = op.io.SimMs(trace_->disk->params());
    start_ = now;  // re-arm for the caller's next operator
  }
  trace_->ops.push_back(std::move(op));
}

}  // namespace upi::obs
