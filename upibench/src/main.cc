// upibench_bin: runs one workload and writes its result.
//
//   upibench_bin --workload hot_serve|cold_analytic|durable_ingest
//                   --seed N --seconds S --trace 0|1 --out DIR
//                   [--plant_wrong 1]
//
// Prints one human-readable line per metric and writes DIR/result.json
// (metrics, raw counters, attempted/failed); with --trace 1 also
// DIR/spans.tsv. upibench/run.py turns these into the benchmark's result
// line; upibench/spans.py derives the per-layer metrics from the spans.
// --plant_wrong plants one wrong expectation in the reference oracle (the
// self-test that a mismatch is counted as failed).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

using namespace upibench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: upibench_bin --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR [--plant_wrong 1]\n");
  return 2;
}

bool WriteResult(const Options& opt, const RunResult& r) {
  std::string path = opt.out_dir + "/result.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"threads\": %d, \"attempted\": %llu, \"failed\": %llu,\n"
               " \"metrics\": {",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.trace ? 1 : 0, r.threads,
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu",
                 sep, name.c_str(), m.value, m.unit.c_str(), m.samples);
    if (m.host) std::fprintf(f, ", \"host_clock\": %.17g", m.raw);
    std::fputs("}", f);
    sep = ",";
  }
  std::fputs("},\n \"counters\": {", f);
  sep = "";
  for (const auto& [name, v] : r.counters) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", sep, name.c_str(), v);
    sep = ",";
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool trace_given = false;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
      trace_given = true;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else if (key == "--plant_wrong") {
      opt.plant_wrong = val == "1";
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || opt.out_dir.empty() || !trace_given ||
      opt.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(opt.out_dir);

  SpanRecorder rec(opt.trace);
  HostProbe probe;
  RunResult r;
  if (opt.workload == "hot_serve") {
    r = RunHotServe(opt, &rec, &probe);
  } else if (opt.workload == "cold_analytic") {
    r = RunColdAnalytic(opt, &rec, &probe);
  } else if (opt.workload == "durable_ingest") {
    r = RunDurableIngest(opt, &rec, &probe);
  } else {
    std::fprintf(stderr, "upibench_bin: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  r.ScaleHostMetrics(probe.Factor());
  r.Set("host_factor", probe.Factor(), "x", probe.samples());

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d threads=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, r.threads);
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-20s %14.4f %-6s n=%zu", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    if (m.host) std::printf("  (host clock %.4f)", m.raw);
    std::printf("\n");
  }
  std::printf("attempted=%llu failed=%llu failed_frac=%.6f\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0);
  if (opt.trace) {
    std::vector<const SpanRecorder*> all = {&rec};
    for (const auto& t : r.thread_spans) all.push_back(t.get());
    if (!WriteSpans(opt.out_dir + "/spans.tsv", all)) {
      std::fprintf(stderr, "upibench_bin: cannot write spans\n");
      return 1;
    }
  }
  if (!WriteResult(opt, r)) {
    std::fprintf(stderr, "upibench_bin: cannot write result\n");
    return 1;
  }
  return 0;
}
