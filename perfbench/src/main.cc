// perfbench: the pathest benchmark of record.
//
//   perfbench --workload build|serve_read|serve_update --seed N
//             --seconds S --trace 0|1 --metrics name:unit,... [--scale X]
//
// Runs from the checkout root (run.py builds and launches it). Inputs are
// generated from --seed; the library only sees the generated graph text,
// request lines and update stream. Prints summary lines, then as the last
// line one JSON object {correct, attempted, failed, metrics} holding the
// --metrics list, which run.py takes from BENCHMARK.json: the end-to-end
// metrics when --trace 0, the per-layer metrics of the traced run when
// --trace 1 (spans are also written to .bench_build/perfbench-traces/).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "build|serve_read|serve_update --seed N --seconds S "
               "--trace 0|1 --metrics name:unit,... [--scale X]\n",
               why);
  return 2;
}

// Parses "name:unit,name:unit,..."; false when an item lacks either part.
bool ParseMetricDefs(const std::string& list,
                     std::vector<perfbench::MetricDef>* defs) {
  size_t from = 0;
  while (from <= list.size()) {
    size_t end = list.find(',', from);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(from, end - from);
    const size_t colon = item.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == item.size()) {
      return false;
    }
    defs->push_back({item.substr(0, colon), item.substr(colon + 1)});
    from = end + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opts;
  std::vector<MetricDef> metrics;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opts.trace = std::string(value) == "1";
    } else if (flag == "--scale") {
      opts.scale = std::strtod(value, &end);
    } else if (flag == "--metrics") {
      if (!ParseMetricDefs(value, &metrics)) {
        return Usage("bad --metrics list");
      }
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags come in pairs");
  if (opts.workload != "build" && opts.workload != "serve_read" &&
      opts.workload != "serve_update") {
    return Usage("unknown workload");
  }
  if (!(opts.seconds > 0) || !(opts.scale > 0 && opts.scale <= 1)) {
    return Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  if (metrics.empty()) return Usage("--metrics is required");

  const std::string root = ".bench_build";
  opts.work_dir = root + "/perfbench-run-" + std::to_string(::getpid());
  std::filesystem::remove_all(opts.work_dir);
  std::filesystem::create_directories(opts.work_dir);

  Report report;
  if (opts.workload == "build") {
    RunBuild(opts, &report);
  } else {
    RunServe(opts, opts.workload == "serve_update", &report);
  }
  report.Set("peak_rss_mb", PeakRssMiB(), "MiB");

  char env[512];
  std::snprintf(env, sizeof(env),
                "env: workload=%s seed=%llu seconds=%g scale=%g trace=%d "
                "nproc=%u compiler=\"%s\" build_type=%s",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.scale, opts.trace ? 1 : 0,
                std::thread::hardware_concurrency(), __VERSION__,
                PERFBENCH_BUILD_TYPE);
  std::vector<std::string> notes = {env};
  if (opts.trace) {
    const std::string trace_dir = root + "/perfbench-traces";
    std::filesystem::create_directories(trace_dir);
    const std::string path = trace_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".jsonl";
    std::string header = "{\"env\":\"";
    for (char c : std::string(env)) {
      if (c == '"') header += '\\';
      header += c;
    }
    header += "\"}";
    DieIf(GlobalTracer().WriteJsonl(path, header), "trace write");
    notes.push_back("trace: " + path);
  }
  std::filesystem::remove_all(opts.work_dir);
  return report.Print(metrics, notes) ? 0 : 1;
}
