// durable_ingest: writes beside reads on one Fractured table with the WAL in
// group-commit mode. Two writer threads insert (and delete ~10%), one reader
// runs prepared PTQs, and the main thread drains maintenance
// (num_workers = 0) whenever tasks are queued, so its busy time is timed
// from outside. The run ends by reopening the database from its log
// (recovery) and checking that every acknowledged write survived.
//
// Writers stall while maintenance runs, the way an LSM store stalls writes
// when compaction falls behind: a writer that finds a task queued parks,
// and maintenance starts once both have parked. Each flush then takes the
// same number of buffered tuples and the merge policy sees the same
// fractures whatever the thread timing, so the table goes through the same
// states for the same writes. The end-to-end metrics cover the measured
// phase, from the start of the window to the write numbered
// kWritesPerSecond x --seconds, where the writers park once more for a
// snapshot of the amplification and memory figures. A host that writes
// faster thus does not report more merging, and its merges land at the
// same points of the phase. The reader runs throughout; the window lasts
// until the deadline or the end of the phase, whichever is later, and the
// writes after the phase only feed recovery and the checks.
//
// The reader's latencies and query rate are on its thread's CPU clock. On
// the wall clock its p99 moved 2x between runs of the same seed: it shares
// the table with three threads, so it measured how their lock holds,
// group-commit wake-ups and the host's scheduling interleaved with it. The
// wall-clock p50 and p99 are printed beside (query_wall_*), unbounded.
//
// The reader runs PTQs only: a secondary probe on this table holds its
// shared lock for tens of milliseconds and stalls both writers, which would
// make the workload measure that stall. The traced run re-runs secondary
// and top-k probes on the quiesced table instead, for the per-layer path
// times.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <thread>

#include "client.h"
#include "common/random.h"
#include "datagen/dblp.h"

namespace upibench {
namespace {

using upi::datagen::DblpConfig;
using upi::datagen::DblpGenerator;
using upi::engine::Database;
using upi::engine::DatabaseOptions;
using upi::engine::Table;

constexpr int kWriters = 2;
// Writes in the measured phase per second of --seconds: about what a
// 4-vCPU VM acknowledges per second, stalls included.
constexpr double kWritesPerSecond = 3000;
// How far past the deadline the window may run to finish the phase.
constexpr int64_t kMaxOverrunNs = 60'000'000'000;
constexpr int kSetupReps = 7;  // set-up is short; more reps steady its median
constexpr size_t kCheckedDefs = 300;    // distinct reader queries re-checked
constexpr size_t kCheckedInserts = 200;  // acknowledged inserts looked up

DatabaseOptions DurableOptions(const std::string& wal_dir) {
  DatabaseOptions opts;
  opts.wal_dir = wal_dir;
  opts.wal_mode = upi::wal::WalMode::kGroup;
  opts.gather_workers = 0;
  opts.maintenance.num_workers = 0;
  opts.maintenance.policy.flush_max_buffered_tuples = 2048;
  return opts;
}

/// Parks the writers while maintenance runs (see the top of this file).
class WriteGate {
 public:
  WriteGate(const upi::maintenance::MaintenanceManager* manager, int writers,
            const std::atomic<uint64_t>* acked, uint64_t snapshot_at)
      : manager_(manager), writers_(writers), acked_(acked),
        snapshot_at_(snapshot_at) {}

  /// Writer side, before each write: returns at once unless a task is
  /// queued, maintenance is running or the snapshot is due, else parks
  /// until Open() or Stop().
  void Pass() {
    if (!closed_.load(std::memory_order_acquire) &&
        manager_->queued_tasks() == 0 && !SnapshotDue()) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !closed_ || stopped_; });
    --parked_;
  }

  /// Maintenance side: waits up to `timeout` for every writer to park;
  /// true when they have (maintenance may run until Open()).
  bool WaitParked(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] {
      return stopped_ || (closed_ && parked_ == writers_);
    }) && !stopped_;
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    cv_.notify_all();
  }

  /// Releases parked writers for good (the window is over).
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }

  /// The measured phase's writes are acknowledged and the snapshot not yet
  /// taken.
  bool SnapshotDue() const {
    return !snapshot_taken_.load(std::memory_order_acquire) &&
           acked_->load(std::memory_order_relaxed) >= snapshot_at_;
  }
  bool snapshot_taken() const { return snapshot_taken_.load(); }
  void set_snapshot_taken() { snapshot_taken_.store(true); }

 private:
  const upi::maintenance::MaintenanceManager* manager_;
  const int writers_;
  const std::atomic<uint64_t>* acked_;
  const uint64_t snapshot_at_;
  std::atomic<bool> snapshot_taken_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> closed_{false};
  int parked_ = 0;
  bool stopped_ = false;
};

/// One writer thread's state. `live` starts as its share of the base rows
/// and tracks every acknowledged insert and delete, so the union over
/// writers is the table's expected content.
struct Writer {
  std::vector<Tuple> live;
  Samples latency_us;
  uint64_t inserts = 0, deletes = 0, failed = 0;
  uint64_t inserted_bytes = 0;
  uint64_t live_bytes = 0;  // of `live`
  int64_t cpu_ns = 0;       // CPU time inside Insert / Delete
};

void WriterLoop(Table* table, const DblpConfig& cfg, int w, TupleId first_id,
                const std::atomic<bool>* stop, WriteGate* gate,
                std::atomic<uint64_t>* acked, Writer* out) {
  DblpConfig wcfg = cfg;
  wcfg.seed = cfg.seed * 1000 + 101 + w;
  DblpGenerator gen(wcfg);
  upi::Rng rng(cfg.seed * 31 + w);
  TupleId next = first_id + w;
  while (true) {
    gate->Pass();
    if (stop->load(std::memory_order_relaxed)) break;
    if (rng.Uniform(10) == 0 && !out->live.empty()) {
      size_t i = rng.Uniform(out->live.size());
      std::swap(out->live[i], out->live.back());
      const int64_t cpu0 = ThreadCpuNs();
      int64_t t0 = NowNs();
      upi::Status st = table->Delete(out->live.back());
      out->latency_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      out->cpu_ns += ThreadCpuNs() - cpu0;
      if (!st.ok()) {
        ++out->failed;
        continue;
      }
      out->live_bytes -= TupleBytes(out->live.back());
      out->live.pop_back();
      ++out->deletes;
    } else {
      Tuple t = gen.MakeAuthor(next);
      next += kWriters;
      const int64_t cpu0 = ThreadCpuNs();
      int64_t t0 = NowNs();
      upi::Status st = table->Insert(t);
      out->latency_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      out->cpu_ns += ThreadCpuNs() - cpu0;
      if (!st.ok()) {
        ++out->failed;
        continue;
      }
      ++out->inserts;
      const uint64_t bytes = TupleBytes(t);
      out->inserted_bytes += bytes;
      out->live_bytes += bytes;
      out->live.push_back(std::move(t));
    }
    acked->fetch_add(1, std::memory_order_relaxed);
  }
}

/// Query groups over the base data: PTQ (the reader's stream), then
/// secondary and top-k (re-run after the window when traced).
/// Institutions with 10-500 matches; every country.
QueryMix ReaderMix(const Oracle& base) {
  const std::vector<double> qts = {0.3, 0.5, 0.7, 0.9};
  std::vector<std::string> insts;
  for (const std::string& v : base.Values(kInstitution)) {
    size_t m = base.Matches(kInstitution, v);
    if (m >= 10 && m <= 500) insts.push_back(v);
  }
  QueryMix mix;
  mix.AddGroup(0, Kind::kPtq, kInstitution, insts, qts, 1);
  mix.AddGroup(0, Kind::kSecondary, kCountry, base.Values(kCountry), qts, 0);
  mix.AddGroup(0, Kind::kTopK, kInstitution, insts, qts, 0);
  return mix;
}

/// Re-checks `picks` of the defs against `oracle` on `table`; returns
/// failures.
uint64_t CheckDefs(Database* db, Table* table, const Oracle& oracle,
                   std::vector<QueryDef> defs, const std::vector<size_t>& picks,
                   uint64_t* attempted) {
  std::vector<TableRef> tables(1);
  tables[0].table = table;
  tables[0].oracle = &oracle;
  tables[0].Prepare(kCountry, kTopK);
  Client client(db, &tables, &defs, {}, true);
  uint64_t failed = 0;
  for (size_t i : picks) {
    ++*attempted;
    if (!client.Verify(defs[i])) ++failed;
  }
  return failed;
}

}  // namespace

RunResult RunDurableIngest(const Options& opt, SpanRecorder* rec,
                           HostProbe* probe) {
  RunResult out;
  DblpConfig cfg = DblpConfig{}.Scaled(0.15);
  cfg.seed = opt.seed;
  const std::string wal_dir = opt.out_dir + "/wal";
  const auto schema = DblpGenerator::AuthorSchema();

  // --- Set-up, repeated: data generation and the journaled bulk build. ----
  Samples setup_s;
  std::vector<Tuple> base;
  std::unique_ptr<Database> db;
  Table* table = nullptr;
  for (int rep = 0; rep < opt.SetupReps(kSetupReps); ++rep) {
    db.reset();
    std::filesystem::remove_all(wal_dir);
    std::filesystem::create_directories(wal_dir);
    int64_t t0 = NowNs();
    {
      ScopedSpan span(rec, "datagen.gen");
      base = DblpGenerator(cfg).GenerateAuthors();
    }
    db = std::make_unique<Database>(DurableOptions(wal_dir));
    {
      ScopedSpan span(rec, "engine.create_table");
      table = Require(db->CreateFracturedTable("authors", schema,
                                               ClusterOnInstitution(),
                                               {kCountry}, base),
                      "create table");
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
    ProbeAfterSetup(probe);
  }
  uint64_t base_bytes = 0;
  for (const Tuple& t : base) base_bytes += TupleBytes(t);

  // The base-data oracle only picks the mix's values; it is gone before the
  // window, so peak_rss_mb does not count it.
  QueryMix mix = ReaderMix(Oracle(base, {kInstitution, kCountry}));
  std::vector<QueryDef>& defs = mix.defs;
  std::vector<TableRef> tables(1);
  tables[0].table = table;
  tables[0].Prepare(kCountry, kTopK);

  std::vector<Writer> writers(kWriters);
  for (size_t i = 0; i < base.size(); ++i) {
    Writer& w = writers[i % kWriters];
    w.live.push_back(base[i]);
    w.live_bytes += TupleBytes(base[i]);
  }
  const TupleId first_id = base.size() + 1;

  // --- Measured window. ---------------------------------------------------
  out.thread_spans.push_back(std::make_unique<SpanRecorder>(false));
  SpanRecorder* reader_rec = out.thread_spans.back().get();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  LoopStats reads, traced_reads, after_phase;
  const int64_t window = static_cast<int64_t>(opt.seconds * 1e9);
  const int64_t start = NowNs();
  const int64_t half = start + window / 2, deadline = start + window;
  EngineCounters c0 = EngineCounters::Take(db.get());
  uint64_t plans0 = tables[0].Plans(), hits0 = tables[0].PlanHits();
  auto* frac = table->fractured();
  uint64_t probed0 = frac->fractures_probed_total();
  uint64_t pruned0 = frac->fractures_pruned_total();

  WriteGate gate(db->maintenance(), kWriters, &acked,
                 static_cast<uint64_t>(kWritesPerSecond * opt.seconds));
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(WriterLoop, table, cfg, w, first_id, &stop, &gate,
                         &acked, &writers[w]);
  }
  // Time inside RunMaintenance(), including a task still running.
  std::atomic<int64_t> busy_ns{0}, busy_since{0};
  auto busy_s = [&] {
    int64_t since = busy_since.load();
    return static_cast<double>(busy_ns.load() + (since ? NowNs() - since : 0)) / 1e9;
  };

  // The reader keeps the clock: at mid-window it counts threads and, when
  // traced, snapshots the counters of the untraced first half and traces
  // from there on; untraced, its queries up to the snapshot are the
  // measured phase's. At the deadline, or at the snapshot if that comes
  // later, it stops the writers, even while a long maintenance task holds
  // the main thread.
  threads.emplace_back([&] {
    Client client(db.get(), &tables, &defs,
                  mix.Stream(1 << 20, opt.seed * 7919 + 17), false);
    client.set_probe(probe);
    client.set_cpu_clock(true);
    SpanRecorder* traced_rec = nullptr;
    LoopStats* into = &reads;
    bool counted = false;
    while (NowNs() < deadline ||
           (!gate.snapshot_taken() && NowNs() < deadline + kMaxOverrunNs)) {
      client.Run(NowNs() + 1'000'000, traced_rec, into);
      if (!opt.trace && into == &reads && gate.snapshot_taken()) {
        into = &after_phase;
      }
      if (counted || NowNs() < half) continue;
      counted = true;
      out.threads = ThreadCount();
      if (!opt.trace) continue;
      AddCounterDeltas(c0, EngineCounters::Take(db.get()), db->params(), &out);
      auto& c = out.counters;
      c["writes"] = static_cast<double>(acked.load());
      c["maint_busy_s"] = busy_s();
      c["window_s"] = static_cast<double>(NowNs() - start) / 1e9;
      c["plans"] = static_cast<double>(tables[0].Plans() - plans0);
      c["plan_hits"] = static_cast<double>(tables[0].PlanHits() - hits0);
      c["fractures_probed"] =
          static_cast<double>(frac->fractures_probed_total() - probed0);
      c["fractures_pruned"] =
          static_cast<double>(frac->fractures_pruned_total() - pruned0);
      c["num_fractures"] = static_cast<double>(frac->num_fractures());
      reader_rec->set_enabled(true);
      traced_rec = reader_rec;
      into = &traced_reads;
    }
    stop.store(true);
    gate.Stop();
  });

  // This thread is the maintenance thread, and takes the amp snapshot.
  double amp_user_bytes = 0, amp_live_bytes = 0, amp_table_bytes = 0;
  double amp_device_bytes = 0, amp_peak_rss_mb = 0;
  int64_t phase_ns = 0;
  uint64_t phase_writes = 0;
  int64_t maint_cpu_ns = 0, phase_cpu_ns = 0;
  Samples ingest_us;
  while (!stop.load()) {
    if (!gate.WaitParked(std::chrono::milliseconds(1))) continue;
    if (db->maintenance()->queued_tasks() > 0) {
      const int64_t cpu0 = ThreadCpuNs();
      int64_t t0 = NowNs();
      busy_since = t0;
      db->RunMaintenance();
      int64_t t1 = NowNs();
      maint_cpu_ns += ThreadCpuNs() - cpu0;
      busy_ns += t1 - t0;
      busy_since = 0;
      rec->Add("maintenance.run", 0, 0, t0, t1);
    }
    if (gate.SnapshotDue()) {
      phase_ns = NowNs() - start;
      phase_writes = acked.load();
      phase_cpu_ns = maint_cpu_ns;
      amp_user_bytes = static_cast<double>(base_bytes);
      for (const Writer& w : writers) {
        amp_user_bytes += static_cast<double>(w.inserted_bytes);
        amp_live_bytes += static_cast<double>(w.live_bytes);
        ingest_us.Append(w.latency_us);
        phase_cpu_ns += w.cpu_ns;
      }
      amp_table_bytes = static_cast<double>(TableBytes(table));
      amp_device_bytes =
          static_cast<double>(db->env()->disk()->stats().bytes_written);
      amp_peak_rss_mb = PeakRssMb();
      gate.set_snapshot_taken();
    }
    gate.Open();
  }
  for (std::thread& t : threads) t.join();
  if (!gate.snapshot_taken()) {
    std::fprintf(stderr, "upibench: durable_ingest: the writers did not reach "
                         "the end of the measured phase\n");
    std::exit(3);
  }
  while (db->RunMaintenance() > 0) {
  }

  // --- End-to-end metrics: the measured phase. ----------------------------
  uint64_t inserts = 0, deletes = 0, write_failures = 0;
  for (const Writer& w : writers) {
    inserts += w.inserts;
    deletes += w.deletes;
    write_failures += w.failed;
  }
  const double phase_s = static_cast<double>(phase_ns) / 1e9;
  // The table changes under the reader, so its device time is averaged over
  // the whole phase.
  ReportQueryMetrics(reads, SIZE_MAX, &out);
  if (opt.trace) {
    AddQueryCounters(reads, &out);
    out.counters["untraced_query_p50_us"] = traced_reads.untraced_us.Percentile(0.5);
  }
  out.SetHost("setup_s", setup_s.Percentile(0.5), "s", setup_s.size());
  // Operations per second of CPU time the workload's threads spent in the
  // engine (writes, queries, maintenance); the wall-clock rate of the
  // writers, whose group-commit sleeps and wake-ups the host stretches, is
  // ingest_ops_s.
  out.SetHost("ops_s",
              static_cast<double>(phase_writes + reads.queries) /
                  (static_cast<double>(phase_cpu_ns + reads.cpu_ns) / 1e9),
              "1/s", phase_writes + reads.queries);
  out.SetHost("ingest_ops_s", static_cast<double>(phase_writes) / phase_s, "1/s",
              phase_writes);
  out.SetHost("ingest_p50_us", ingest_us.Percentile(0.50), "us", ingest_us.size());
  out.SetHost("ingest_p99_us", ingest_us.Percentile(0.99), "us", ingest_us.size());
  out.Set("write_amp", amp_device_bytes / amp_user_bytes, "ratio", phase_writes);
  out.Set("space_amp", amp_table_bytes / amp_live_bytes, "ratio", phase_writes);
  Oracle final_oracle({kInstitution, kCountry});
  for (const Writer& w : writers) final_oracle.Add(w.live);
  if (opt.plant_wrong) final_oracle.PlantWrongExpectation();
  if (opt.trace) {
    ProbeBTree(frac->main()->heap_tree(), opt.seed, rec);
    Client rerun(db.get(), &tables, &defs, {}, false);
    for (size_t g : {1, 2}) {
      const std::vector<uint32_t>& group = mix.groups[g];
      for (size_t i = 0; i < group.size(); i += std::max<size_t>(1, group.size() / 100)) {
        rerun.Rerun(defs[group[i]], rec, rec->NewRequest());
      }
    }
  }

  // --- Checks: live count, reader answers, then the same after recovery. --
  const uint64_t expected_live = base.size() + inserts - deletes;
  std::vector<size_t> picks;
  for (size_t i = 0; i < defs.size(); i += std::max<size_t>(1, defs.size() / kCheckedDefs)) {
    picks.push_back(i);
  }
  out.attempted = inserts + deletes + write_failures + reads.queries +
                  traced_reads.queries + after_phase.queries + 1;
  out.failed = write_failures + reads.failed + traced_reads.failed +
               after_phase.failed + (frac->num_live_tuples() != expected_live);
  out.failed += CheckDefs(db.get(), table, final_oracle, defs, picks, &out.attempted);

  tables.clear();
  db.reset();
  int64_t r0 = NowNs();
  db = std::make_unique<Database>(DurableOptions(wal_dir));
  out.SetHost("recovery_s", static_cast<double>(NowNs() - r0) / 1e9, "s");
  out.counters["wal_records_replayed"] =
      static_cast<double>(db->recovery_stats().records);
  table = db->GetTable("authors");
  ++out.attempted;
  if (table == nullptr || table->fractured()->num_live_tuples() != expected_live) {
    ++out.failed;
  }
  if (table != nullptr) {
    out.failed += CheckDefs(db.get(), table, final_oracle, defs, picks, &out.attempted);
    // Sampled acknowledged inserts come back from a PTQ on their most
    // likely institution at their own confidence.
    std::vector<const Tuple*> inserted;
    for (const Writer& w : writers) {
      for (const Tuple& t : w.live) {
        if (t.id() >= first_id) inserted.push_back(&t);
      }
    }
    upi::Rng rng(opt.seed);
    std::vector<PtqMatch> rows;
    for (size_t i = 0; i < kCheckedInserts && !inserted.empty(); ++i) {
      const Tuple& t = *inserted[rng.Uniform(inserted.size())];
      const std::string& inst = t.Get(kInstitution).discrete().alternatives()[0].value;
      double conf = t.ConfidenceOf(kInstitution, inst);
      rows.clear();
      ++out.attempted;
      bool found = table->Run(upi::engine::Query::Ptq(inst, conf - 1e-9), &rows).ok() &&
                   std::any_of(rows.begin(), rows.end(),
                               [&](const PtqMatch& m) { return m.id == t.id(); });
      if (!found) ++out.failed;
    }
  }
  db.reset();
  std::filesystem::remove_all(wal_dir);
  out.Set("peak_rss_mb", amp_peak_rss_mb, "MB", phase_writes);
  return out;
}

}  // namespace upibench
