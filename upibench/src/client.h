// The closed-loop query client every workload drives: prepared queries over
// one or more tables, executed through Table::Prepare / PreparedQuery::Bind /
// BoundQuery::Execute on the calling thread (no engine::Session, so no extra
// worker thread per client).
//
// Untraced, a query is timed on the host clock around Bind + Execute and on
// the device clock through the calling thread's SimDisk stripe. Traced, the
// same interval becomes a "query" span with "engine.bind" and
// "exec.execute" children for every other query (the rest stay untraced, as
// the overhead baseline), and every kRerunEvery-th traced query's inputs are
// re-run straight to QueryPlanner::PlanQuery ("engine.plan"), the
// AccessPath probe its plan runs ("engine.path_*") and BoundQuery::Execute
// ("exec.reexecute"), so the post-processor can split plan, path and exec
// self time.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bench.h"

namespace upibench {

enum class Kind { kPtq, kSecondary, kTopK };

/// One table the client queries, with its prepared shapes.
struct TableRef {
  upi::engine::Table* table = nullptr;
  const Oracle* oracle = nullptr;  // expectations for in-flight checks
  std::optional<upi::engine::PreparedQuery> ptq, secondary, topk;

  /// Prepares the PTQ, secondary (on `secondary_column`, when >= 0) and
  /// top-k (`k` > 0) shapes.
  void Prepare(int secondary_column, size_t k);
  uint64_t Plans() const;
  uint64_t PlanHits() const;
};

/// One distinct query: (table, kind, value, qt or k). Checked against the
/// oracle the first time it runs; repeats must reproduce its fingerprint.
struct QueryDef {
  int table = 0;
  Kind kind = Kind::kPtq;
  int column = kInstitution;  // the attribute the oracle evaluates
  std::string value;
  double qt = 0.5;
  size_t k = 0;
  bool verified = false;
  bool ok = false;
  uint64_t fingerprint = 0;
};

struct LoopStats {
  Samples all_us, ptq_us, secondary_us, sim_ms;  // on the client's clock
  Samples wall_us;      // CPU-clock clients: every query on the wall clock
  Samples untraced_us;  // traced loops: the queries run without spans (wall)
  bool traced_loop = false;
  bool cpu_clock = false;
  int64_t cpu_ns = 0;  // CPU-clock clients: CPU time inside queries
  upi::sim::DiskStats io;  // the client's own device traffic
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  int64_t check_ns = 0;  // host time spent verifying (excluded from rates)
  int64_t probe_ns = 0;  // host time spent in HostProbe (excluded too)
  int64_t wall_ns = 0;
  std::vector<uint64_t> per_table;  // queries per TableRef

  /// Queries per second of client time, verification excluded (per second
  /// of query CPU time on a CPU-clock client).
  double Rate() const;
};

class Client {
 public:
  static constexpr uint64_t kRerunEvery = 4;

  /// `stream` holds indices into `defs`, cycled in order. With `check`
  /// false (concurrent writers, no fixed expectation) each result is only
  /// checked for soundness: true confidences above the threshold, no
  /// duplicate rows.
  Client(upi::engine::Database* db, std::vector<TableRef>* tables,
         std::vector<QueryDef>* defs, std::vector<uint32_t> stream, bool check)
      : db_(db), tables_(tables), defs_(defs), stream_(std::move(stream)),
        check_(check) {}

  /// Runs `probe` between queries, every kProbeEveryNs.
  void set_probe(HostProbe* probe) { probe_ = probe; }

  /// Times queries on the calling thread's CPU clock rather than the wall
  /// clock, for a client whose table is shared with writer and maintenance
  /// threads: its wall time then mostly measures how their lock holds and
  /// the host's scheduling interleave with it (see durable.cc).
  void set_cpu_clock(bool on) { cpu_clock_ = on; }

  /// Runs the stream until `deadline_ns`, and past it until `st` holds at
  /// least `min_queries` queries, accumulating into `st`. `rec` null =
  /// untraced.
  void Run(int64_t deadline_ns, SpanRecorder* rec, LoopStats* st,
           uint64_t min_queries = 0);

  /// Executes every def once, in order (the warm-up pass).
  void RunAll(LoopStats* st);

  /// Executes `d` once and checks it against the oracle from scratch.
  bool Verify(QueryDef& d);

  /// Re-runs `d`'s inputs to the planner, to the AccessPath call its bound
  /// plan executes, and to the bound query, each under its own span
  /// (children of one "rerun" span). Plans without one matching path call
  /// record the planner span only.
  void Rerun(const QueryDef& d, SpanRecorder* rec, uint32_t request);

 private:
  void RunOne(QueryDef& d, SpanRecorder* rec, LoopStats* st);
  upi::engine::BoundQuery Bind(const QueryDef& d) const;
  bool Check(QueryDef& d, const std::vector<PtqMatch>& rows) const;

  upi::engine::Database* db_;
  std::vector<TableRef>* tables_;
  std::vector<QueryDef>* defs_;
  std::vector<uint32_t> stream_;
  size_t pos_ = 0;
  bool check_;
  HostProbe* probe_ = nullptr;
  bool cpu_clock_ = false;
  std::vector<PtqMatch> rows_;
};

/// The distinct queries of a workload, grouped by mix share.
struct QueryMix {
  std::vector<QueryDef> defs;
  std::vector<std::vector<uint32_t>> groups;  // def indices per share
  std::vector<int> per_block;                 // draws per group per block

  /// Adds one def per value x qt (per value for top-k, k = kTopK) on table
  /// `table` as a new group, drawn `draws` times per stream block.
  void AddGroup(int table, Kind kind, int column,
                const std::vector<std::string>& values,
                const std::vector<double>& qts, int draws);

  /// A stream of at least `n` def indices, built from shuffled blocks that
  /// hold exactly per_block[g] draws from group g, so every prefix has the
  /// mix's exact proportions. Each group deals its defs from a shuffled
  /// deck, every def once per pass, so short runs sample it evenly.
  std::vector<uint32_t> Stream(size_t n, uint64_t seed) const;

  /// Prunes `oracle`, the expectations of table `table`, to what this
  /// mix's queries on that table can return.
  void PruneOracle(int table, Oracle* oracle) const;
};

/// Sets the latency metrics shared by every workload from `st`.
/// query_sim_ms_mean averages the device time of the first `sim_queries`
/// queries (all of them when `st` holds fewer). A CPU-clock client's wall
/// latencies are added as query_wall_p50_us and query_wall_p99_us.
void ReportQueryMetrics(const LoopStats& st, size_t sim_queries, RunResult* out);

/// Records `st`'s per-query counters (queries, rows, device I/O) for the
/// post-processor.
void AddQueryCounters(const LoopStats& st, RunResult* out);

/// Times BTree::Get on keys sampled from a full Cursor walk of `tree`
/// ("btree.get" spans) and the walk itself in batches of kNextBatch
/// Cursor::Next calls ("btree.next_batch" spans).
void ProbeBTree(const upi::btree::BTree* tree, uint64_t seed,
                SpanRecorder* rec);
inline constexpr int kNextBatch = 1024;

}  // namespace upibench
