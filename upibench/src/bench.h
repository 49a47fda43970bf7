// Shared pieces of the benchmark program: clocks, latency samples, the span
// recorder behind the traced run, the possible-world reference oracle, and
// the result record every workload fills.
//
// The program calls the engine only through its public headers. Spans are
// recorded here, in the benchmark, around calls into each module; counters
// come from what the modules already export (BufferPool::counters(),
// SimDisk::stats(), MaintenanceManager::stats(), MetricsSnapshot).
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/tuple.h"
#include "core/upi.h"
#include "engine/database.h"
#include "sim/sim_disk.h"

namespace upibench {

using upi::catalog::Tuple;
using upi::catalog::TupleId;
using upi::core::PtqMatch;

// Every workload queries DBLP-shaped tables (Author or Publication, whose
// uncertain columns share indexes), clustered on institution.
inline constexpr int kInstitution = 1;
inline constexpr int kCountry = 2;
inline constexpr size_t kTopK = 10;

/// UPI options of every table: clustered on institution, cutoff 0.1.
inline upi::core::UpiOptions ClusterOnInstitution() {
  upi::core::UpiOptions opt;
  opt.cluster_column = kInstitution;
  opt.cutoff = 0.1;
  return opt;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Time the thread waits — on a lock, or
/// while the host runs something else on its vCPU (steal time) — is not in
/// it.
inline int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Aborts the run (exit 3, no result line) on an engine error the workload
/// cannot count as a failed operation — setup cannot continue without it.
void Require(const upi::Status& st, const char* what);

template <typename T>
T Require(upi::Result<T> r, const char* what) {
  Require(r.status(), what);
  return std::move(r).ValueOrDie();
}

/// Latency samples of one operation class.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  /// Sum of the first `n` samples (all by default).
  double Sum(size_t n = SIZE_MAX) const;
  /// Nearest-rank percentile, p in [0, 1]. 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<double> v_;
};

/// One recorded span. `parent` and `request` are span / request ids (0 =
/// none). Times are steady-clock nanoseconds.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span buffer of one thread. Disabled recorders cost one branch.
/// Span ids are 1 + the span's index in spans().
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its id (0 when disabled). Close with End().
  uint32_t Begin(const char* name, uint32_t parent, uint32_t request);
  void End(uint32_t id);
  /// Records an already-timed interval.
  uint32_t Add(const char* name, uint32_t parent, uint32_t request,
               int64_t start_ns, int64_t end_ns);
  uint32_t NewRequest() { return ++next_request_; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint32_t parent = 0,
             uint32_t request = 0)
      : rec_(rec), id_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  uint32_t id_;
};

/// Writes every recorder's spans as TSV: id, parent, request, name,
/// start_ns, end_ns. Ids are per recorder, so the recorder's index is put in
/// the high bits of request ids; spans join their parent within a request.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

/// Brute-force possible-world answers over a tuple set: for every
/// (column, value) the live tuples whose confidence (Tuple::ConfidenceOf) is
/// positive. Each distinct query is checked against it.
class Oracle {
 public:
  explicit Oracle(std::vector<int> columns) : columns_(std::move(columns)) {}
  Oracle(const std::vector<Tuple>& tuples, std::vector<int> columns)
      : Oracle(std::move(columns)) {
    Add(tuples);
  }
  /// Adds live tuples.
  void Add(const std::vector<Tuple>& tuples);

  /// Rows of PTQ(column, value, qt): confidence >= qt.
  std::vector<std::pair<TupleId, double>> Ptq(int column,
                                              std::string_view value,
                                              double qt) const;
  /// Confidences of top-k(column, value), highest first.
  std::vector<double> TopK(int column, std::string_view value, size_t k) const;
  /// Number of tuples with positive confidence for (column, value).
  size_t Matches(int column, std::string_view value) const;
  /// Every value seen in `column`.
  std::vector<std::string> Values(int column) const;

  /// When set, the next Ptq() expectation gains a phantom row — the
  /// benchmark's self-test that a wrong answer is counted as failed.
  void PlantWrongExpectation() { plant_ = true; }

  using Rows = std::vector<std::pair<TupleId, double>>;
  /// Every positive-confidence row of (column, value); nullptr when none.
  const Rows* Find(int column, std::string_view value) const;

  /// What the queries on one (column, value) can return: PTQ rows down to
  /// `min_qt`, and the `k` highest confidences.
  struct Need {
    double min_qt = 2.0;  // above any confidence: no PTQ
    size_t k = 0;         // 0: no top-k
  };
  /// Drops every row no query in `needs` can return, so only the answers
  /// the run checks stay resident beside the engine. Ptq() at qt >= min_qt
  /// and TopK() up to k answer as before; Matches() and Values() then see
  /// the kept rows only.
  void Prune(const std::map<std::pair<int, std::string>, Need>& needs);

 private:
  std::vector<int> columns_;
  std::map<int, std::unordered_map<std::string, Rows>> index_;
  mutable bool plant_ = false;
};

/// True when `got` equals the expected PTQ rows (as a set of ids, with
/// confidences within 1e-6).
bool SameRows(const std::vector<PtqMatch>& got,
              std::vector<std::pair<TupleId, double>> want);
/// True when `got` holds exactly the expected top-k confidences.
bool SameTopK(const std::vector<PtqMatch>& got, const std::vector<double>& want,
              const Oracle& oracle, int column, std::string_view value);

/// Order-independent digest of a result set, for re-checking repeated
/// executions of an already-verified query cheaply.
uint64_t Fingerprint(const std::vector<PtqMatch>& rows);

/// Serialized size of a tuple: the "user bytes" of the amplification ratios.
uint64_t TupleBytes(const Tuple& t);

/// Bytes a table occupies on the simulated device (every index included).
uint64_t TableBytes(const upi::engine::Table* table);

/// Engine-wide counters the modules already export, snapshotted together so
/// a window's deltas line up.
struct EngineCounters {
  upi::storage::BufferPool::PoolCounters pool;
  upi::sim::DiskStats disk;
  upi::maintenance::MaintenanceStats maint;
  double wal_appends = 0, wal_bytes = 0, wal_syncs = 0;

  static EngineCounters Take(upi::engine::Database* db);
};

struct RunResult;
/// Records `end - begin` as raw counters (pool_*, disk_*, maint_*, wal_*).
void AddCounterDeltas(const EngineCounters& begin, const EngineCounters& end,
                      const upi::sim::CostParams& params, RunResult* out);

/// A fixed piece of work that does not touch the engine but is built like
/// its hot loops: copying, sorting, hashing and map-inserting 512 short
/// strings (allocation, comparison, branches), ~0.3 ms of CPU on a quiet
/// host. Workloads run it between their operations. On a shared VM the host
/// runs such code 10-30% faster or slower from one minute to the next
/// (plain arithmetic barely moves), and the program moves with it; the
/// probe's median CPU time over a run gauges that speed, and host timings
/// are reported divided by Factor(), i.e. at the reference host speed. It
/// is timed on the thread's CPU clock so that waiting for a vCPU does not
/// count as slowness (durable_ingest's reader is itself on that clock).
class HostProbe {
 public:
  /// The reference host's median probe time: Factor() is 1 there.
  static constexpr double kReferenceNs = 300e3;

  HostProbe();
  /// Runs the work once, timed.
  void Run();
  /// Runs it when `interval_ns` has passed since the last run; returns the
  /// host time spent.
  int64_t MaybeRun(int64_t interval_ns);
  /// Median probe time over kReferenceNs (1 when never run).
  double Factor() const;
  size_t samples() const { return ns_.size(); }

 private:
  std::vector<std::string> words_;
  Samples ns_;
  int64_t last_ns_ = 0;
  uint64_t sink_ = 0;
};

/// Peak resident set (VmHWM) and current thread count of this process.
double PeakRssMb();
int ThreadCount();

/// What one workload run reports.
struct RunResult {
  struct Metric {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;  // 0 = not a sampled timing
    bool host = false;   // a host-clock time or rate, scaled by HostProbe
    double raw = 0.0;    // host metrics: the value before scaling
  };
  std::map<std::string, Metric> metrics;   // end-to-end
  std::map<std::string, double> counters;  // raw inputs of per-layer metrics
  /// Spans of the workload's own threads (main's recorder aside).
  std::vector<std::unique_ptr<SpanRecorder>> thread_spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int threads = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// A host-clock time (or, in 1/s, rate): reported at the reference host
  /// speed by ScaleHostMetrics().
  void SetHost(const std::string& name, double value, const std::string& unit,
               size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples, true, value};
  }
  /// Divides every host time by `factor` (HostProbe::Factor()) and
  /// multiplies every host rate by it, keeping the raw values.
  void ScaleHostMetrics(double factor);
};

/// Flags every workload receives.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant_wrong = false;
  std::string out_dir;  // result.json and spans.tsv land here

  /// Set-ups per run (`untraced` by default); setup_s is their median. The
  /// traced run reports per-layer numbers only, so one suffices there.
  int SetupReps(int untraced = 3) const { return trace ? 1 : untraced; }
};

/// How often a workload runs its HostProbe, and how many probes follow each
/// set-up.
inline constexpr int64_t kProbeEveryNs = 20'000'000;
inline constexpr int kProbesPerSetup = 20;
void ProbeAfterSetup(HostProbe* probe);

RunResult RunHotServe(const Options& opt, SpanRecorder* rec, HostProbe* probe);
RunResult RunColdAnalytic(const Options& opt, SpanRecorder* rec,
                          HostProbe* probe);
RunResult RunDurableIngest(const Options& opt, SpanRecorder* rec,
                           HostProbe* probe);

}  // namespace upibench
