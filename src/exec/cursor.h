// Pull-based plan execution: the cursor layer under the declarative Query
// API.
//
// Every AccessPath probe returns an engine::ResultCursor, so a Plan has one
// execution path: OpenCursor() opens the cursor its plan kind names, and
// Execute() (exec/operators.h) drains it, sorts, and truncates. Streaming
// probes — clustered PTQ (Algorithm 2), the UPI's direct top-k, PII heap
// fetches, the fractured fan-out, the partitioned k-way merge — execute
// incrementally: a consumer that stops after k rows never runs the deferred
// phases (cutoff-pointer collection, remaining heap fetches, later
// fractures), which is where LIMIT/top-k beat full execution on simulated
// page reads. The other probes (secondary, scan-filter, threshold-descent
// top-k, fan-out top-k) compute their rows in one call at the first pull
// and serve them in descending confidence (engine::RowsCursor); top-k
// probes that need k up front take it from the consumer's limit.
//
// Row order: descending confidence (ties by TupleId), except PTQ and PII
// streams, which deliver storage order — the heap phase (descending
// confidence within the probed region) before the cutoff phase, fractures
// in fan-out order, PII rows in heap order. Execute() applies the final
// confidence sort to every cursor that does not report best_first().
#pragma once

#include <functional>
#include <memory>

#include "engine/access_path.h"
#include "engine/planner.h"

namespace upi::exec {

/// Opens the cursor executing `plan` against `path`. The cursor enforces
/// plan.k / plan.limit (whichever is tighter) and, when given, `predicate`.
/// A probe the path lacks (a NotSupported cursor) is reported here, not at
/// the first pull.
Result<std::unique_ptr<engine::ResultCursor>> OpenCursor(
    const engine::AccessPath& path, const engine::Plan& plan,
    std::function<bool(const catalog::Tuple&)> predicate = {});

}  // namespace upi::exec
