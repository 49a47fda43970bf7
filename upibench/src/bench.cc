#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>

namespace upibench {

void Require(const upi::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "upibench: %s failed: %s\n", what,
                 st.ToString().c_str());
    std::exit(3);
  }
}

double Samples::Sum(size_t n) const {
  double s = 0.0;
  for (size_t i = 0; i < v_.size() && i < n; ++i) s += v_[i];
  return s;
}

double Samples::Percentile(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted(v_);
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  size_t idx = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(sorted.begin(), sorted.begin() + idx, sorted.end());
  return sorted[idx];
}

uint32_t SpanRecorder::Begin(const char* name, uint32_t parent,
                             uint32_t request) {
  int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanRecorder::End(uint32_t id) {
  if (id != 0) spans_[id - 1].end_ns = NowNs();
}

uint32_t SpanRecorder::Add(const char* name, uint32_t parent, uint32_t request,
                           int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return 0;
  spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                        request, name, start_ns, end_ns});
  return spans_.back().id;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("id\tparent\trequest\tname\tstart_ns\tend_ns\n", f);
  for (size_t r = 0; r < recorders.size(); ++r) {
    uint64_t req_base = static_cast<uint64_t>(r) << 32;
    for (const Span& s : recorders[r]->spans()) {
      std::fprintf(f, "%u\t%u\t%llu\t%s\t%lld\t%lld\n", s.id, s.parent,
                   static_cast<unsigned long long>(
                       s.request == 0 ? 0 : req_base + s.request),
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

void Oracle::Add(const std::vector<Tuple>& tuples) {
  for (int col : columns_) {
    auto& by_value = index_[col];
    for (const Tuple& t : tuples) {
      for (const auto& alt : t.Get(col).discrete().alternatives()) {
        double conf = t.ConfidenceOf(col, alt.value);
        if (conf > 0) by_value[alt.value].emplace_back(t.id(), conf);
      }
    }
  }
}

const Oracle::Rows* Oracle::Find(int column, std::string_view value) const {
  auto col = index_.find(column);
  if (col == index_.end()) return nullptr;
  auto it = col->second.find(std::string(value));
  return it == col->second.end() ? nullptr : &it->second;
}

void Oracle::Prune(const std::map<std::pair<int, std::string>, Need>& needs) {
  for (auto& [col, by_value] : index_) {
    for (auto it = by_value.begin(); it != by_value.end();) {
      auto need = needs.find({col, it->first});
      if (need == needs.end()) {
        it = by_value.erase(it);
        continue;
      }
      Rows& rows = it->second;
      double keep = need->second.min_qt;
      if (need->second.k > 0 && !rows.empty()) {
        // Every row tied with or above the k-th highest confidence.
        std::vector<double> confs;
        confs.reserve(rows.size());
        for (const auto& r : rows) confs.push_back(r.second);
        size_t kth = std::min(need->second.k, confs.size()) - 1;
        std::nth_element(confs.begin(), confs.begin() + kth, confs.end(),
                         std::greater<>());
        keep = std::min(keep, confs[kth]);
      }
      std::erase_if(rows, [&](const auto& r) { return r.second < keep; });
      rows.shrink_to_fit();
      ++it;
    }
  }
}

std::vector<std::pair<TupleId, double>> Oracle::Ptq(int column,
                                                    std::string_view value,
                                                    double qt) const {
  Rows out;
  if (const Rows* rows = Find(column, value)) {
    for (const auto& r : *rows) {
      if (r.second >= qt) out.push_back(r);
    }
  }
  if (plant_) {
    plant_ = false;
    out.emplace_back(~TupleId{0}, 1.0);
  }
  return out;
}

std::vector<double> Oracle::TopK(int column, std::string_view value,
                                 size_t k) const {
  std::vector<double> confs;
  if (const Rows* rows = Find(column, value)) {
    for (const auto& r : *rows) confs.push_back(r.second);
  }
  std::sort(confs.begin(), confs.end(), std::greater<>());
  if (confs.size() > k) confs.resize(k);
  return confs;
}

size_t Oracle::Matches(int column, std::string_view value) const {
  const Rows* rows = Find(column, value);
  return rows == nullptr ? 0 : rows->size();
}

std::vector<std::string> Oracle::Values(int column) const {
  std::vector<std::string> out;
  auto col = index_.find(column);
  if (col == index_.end()) return out;
  for (const auto& [value, rows] : col->second) out.push_back(value);
  std::sort(out.begin(), out.end());
  return out;
}

bool SameRows(const std::vector<PtqMatch>& got,
              std::vector<std::pair<TupleId, double>> want) {
  if (got.size() != want.size()) return false;
  std::vector<std::pair<TupleId, double>> have;
  have.reserve(got.size());
  for (const PtqMatch& m : got) have.emplace_back(m.id, m.confidence);
  std::sort(have.begin(), have.end());
  std::sort(want.begin(), want.end());
  for (size_t i = 0; i < have.size(); ++i) {
    if (have[i].first != want[i].first ||
        std::fabs(have[i].second - want[i].second) > 1e-6) {
      return false;
    }
  }
  return true;
}

bool SameTopK(const std::vector<PtqMatch>& got, const std::vector<double>& want,
              const Oracle& oracle, int column, std::string_view value) {
  if (got.size() != want.size()) return false;
  std::vector<double> have;
  for (const PtqMatch& m : got) {
    // Each returned row must be a real match with its true confidence.
    const Oracle::Rows* rows = oracle.Find(column, value);
    if (rows == nullptr) return false;
    auto it = std::find_if(rows->begin(), rows->end(),
                           [&](const auto& r) { return r.first == m.id; });
    if (it == rows->end() || std::fabs(it->second - m.confidence) > 1e-6) {
      return false;
    }
    have.push_back(m.confidence);
  }
  std::sort(have.begin(), have.end(), std::greater<>());
  for (size_t i = 0; i < have.size(); ++i) {
    if (std::fabs(have[i] - want[i]) > 1e-6) return false;
  }
  return true;
}

uint64_t Fingerprint(const std::vector<PtqMatch>& rows) {
  uint64_t ids = 0, confs = 0;
  for (const PtqMatch& m : rows) {
    ids += (m.id + 1) * 0x9E3779B97F4A7C15ull;
    confs += static_cast<uint64_t>(std::llround(m.confidence * 1e9));
  }
  return ids ^ (confs * 0xC2B2AE3D27D4EB4Full) ^ rows.size();
}

uint64_t TupleBytes(const Tuple& t) {
  std::string buf;
  t.Serialize(&buf);
  return buf.size();
}

uint64_t TableBytes(const upi::engine::Table* table) {
  using upi::engine::Table;
  switch (table->kind()) {
    case Table::Kind::kUpi:
      return table->upi()->size_bytes();
    case Table::Kind::kFractured:
      return table->fractured()->size_bytes();
    case Table::Kind::kPartitioned: {
      uint64_t total = 0;
      auto* part = table->partitioned();
      for (size_t i = 0; i < part->num_shards(); ++i) {
        if (auto* frac = part->shard_fractured(i)) {
          total += frac->size_bytes();
        } else if (auto* path = dynamic_cast<upi::engine::UpiAccessPath*>(
                       part->shard_path(i))) {
          total += path->upi()->size_bytes();
        }
      }
      return total;
    }
    case Table::Kind::kUnclustered:
      return table->path()->Stats().table.table_bytes;
  }
  return 0;
}

EngineCounters EngineCounters::Take(upi::engine::Database* db) {
  EngineCounters c;
  c.pool = db->env()->pool()->counters();
  c.disk = db->env()->disk()->stats();
  c.maint = db->maintenance()->stats();
  upi::obs::MetricsSnapshot snap = db->MetricsSnapshot();
  c.wal_appends = snap.SumOf("upi_wal_appends_total");
  c.wal_bytes = snap.SumOf("upi_wal_bytes_total");
  c.wal_syncs = snap.SumOf("upi_wal_syncs_total");
  return c;
}

void AddCounterDeltas(const EngineCounters& a, const EngineCounters& b,
                      const upi::sim::CostParams& params, RunResult* out) {
  auto& c = out->counters;
  c["pool_hits"] = static_cast<double>(b.pool.hits - a.pool.hits);
  c["pool_misses"] = static_cast<double>(b.pool.misses - a.pool.misses);
  c["pool_evictions"] = static_cast<double>(b.pool.evictions - a.pool.evictions);
  c["pool_writebacks"] =
      static_cast<double>(b.pool.writebacks - a.pool.writebacks);
  upi::sim::DiskStats d = b.disk - a.disk;
  c["disk_writes"] = static_cast<double>(d.writes);
  c["disk_rotations"] = static_cast<double>(d.rotations);
  c["disk_sim_ms"] = d.SimMs(params);
  c["maint_flushes"] = static_cast<double>(b.maint.flushes - a.maint.flushes);
  c["maint_partial_merges"] =
      static_cast<double>(b.maint.partial_merges - a.maint.partial_merges);
  c["maint_full_merges"] =
      static_cast<double>(b.maint.full_merges - a.maint.full_merges);
  c["maint_sim_ms"] = b.maint.sim_ms() - a.maint.sim_ms();
  c["wal_appends"] = b.wal_appends - a.wal_appends;
  c["wal_bytes"] = b.wal_bytes - a.wal_bytes;
  c["wal_syncs"] = b.wal_syncs - a.wal_syncs;
}

HostProbe::HostProbe() {
  std::mt19937_64 rng(0x5eed);
  for (int i = 0; i < 512; ++i) {
    std::string w(8 + rng() % 17, ' ');
    for (char& c : w) c = static_cast<char>('a' + rng() % 26);
    words_.push_back(std::move(w));
  }
}

void HostProbe::Run() {
  const int64_t cpu0 = ThreadCpuNs();
  std::vector<std::string> sorted(words_);
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::string, size_t> hashed;
  for (size_t i = 0; i < sorted.size(); ++i) hashed[sorted[i]] = i;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& w : words_) sink_ += hashed.find(w)->second;
  }
  std::map<std::string, size_t> ordered;
  for (size_t i = 0; i < words_.size(); ++i) ordered.emplace(words_[i], i);
  for (size_t i = 0; i < words_.size(); i += 2) ordered.erase(words_[i]);
  sink_ += ordered.size();
  ns_.Add(static_cast<double>(ThreadCpuNs() - cpu0));
  last_ns_ = NowNs();
}

int64_t HostProbe::MaybeRun(int64_t interval_ns) {
  int64_t now = NowNs();
  if (now - last_ns_ < interval_ns) return 0;
  Run();
  return last_ns_ - now;
}

double HostProbe::Factor() const {
  return ns_.size() ? ns_.Percentile(0.5) / kReferenceNs : 1.0;
}

void ProbeAfterSetup(HostProbe* probe) {
  for (int i = 0; i < kProbesPerSetup; ++i) probe->Run();
}

void RunResult::ScaleHostMetrics(double factor) {
  for (auto& [name, m] : metrics) {
    if (!m.host) continue;
    m.value = m.unit == "1/s" ? m.raw * factor : m.raw / factor;
  }
}

namespace {
long StatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n);
  }
  return 0;
}
}  // namespace

double PeakRssMb() { return static_cast<double>(StatusField("VmHWM:")) / 1024.0; }

int ThreadCount() { return static_cast<int>(StatusField("Threads:")); }

}  // namespace upibench
