// Session: a per-client serving handle over a Database.
//
// Each Session owns one worker thread — the classic one-connection-one-
// stream contract — and an in-order submission queue. Submit() hands a bound
// prepared query (or a one-shot Query) to the worker and returns a future:
// the client can pipeline several submissions and collect results as they
// complete, and a closed-loop client (bench_throughput) simply submits and
// waits. Because execution happens on the worker, the worker's SimDisk
// stripe attributes the operation's simulated device time, which the result
// carries back — clients never need to touch thread_stats() themselves.
//
// Sessions add no locking of their own around table access: the storage
// engine below (sharded buffer pool, fracture-set snapshots, striped disk
// stats) is what lets many sessions overlap.
#pragma once

#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "sync/sync.h"

namespace upi::engine {

/// One executed query's outcome: the plan it ran, its rows, and the
/// simulated device milliseconds the execution charged (measured on the
/// session worker's SimDisk stripe).
struct QueryResult {
  Plan plan;
  std::vector<core::PtqMatch> rows;
  double sim_ms = 0.0;
};

class Session {
 public:
  explicit Session(Database* db);
  /// Drains queued submissions, then joins the worker.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Async prepared execution: Bind(value[, qt]) + Execute on the session
  /// worker. Submissions run in order.
  std::future<Result<QueryResult>> Submit(const PreparedQuery& prepared,
                                          std::string value);
  std::future<Result<QueryResult>> Submit(const PreparedQuery& prepared,
                                          std::string value, double qt);

  /// Async one-shot execution of a full Query against a table.
  std::future<Result<QueryResult>> Submit(const Table& table, Query q);

  /// Async writes, run through Table::Insert/Delete on the session worker —
  /// so with a WAL in group-commit mode, many sessions' commits batch into
  /// shared syncs (the result's sim_ms carries this operation's share of the
  /// device time). The returned QueryResult has no plan and no rows.
  std::future<Result<QueryResult>> SubmitInsert(Table& table,
                                                catalog::Tuple tuple);
  std::future<Result<QueryResult>> SubmitDelete(Table& table,
                                                catalog::Tuple tuple);

  /// Operations submitted over the session's lifetime.
  uint64_t submitted() const;

 private:
  using Task = std::packaged_task<Result<QueryResult>()>;

  std::future<Result<QueryResult>> Enqueue(Task task);
  Result<QueryResult> Measure(
      const std::function<Result<Plan>(std::vector<core::PtqMatch>*)>& run)
      const;
  void WorkerLoop();

  Database* db_;
  obs::Counter* m_ops_ = nullptr;            // upi_session_ops_total
  obs::Histogram* m_sim_ms_ = nullptr;       // upi_session_sim_ms
  mutable sync::Mutex mu_{sync::LockRank::kSession};
  sync::CondVar cv_;
  std::deque<Task> queue_;
  bool closed_ = false;
  uint64_t submitted_ = 0;
  std::thread worker_;
};

}  // namespace upi::engine
