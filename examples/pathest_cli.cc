// pathest_cli: command-line front end for the library — generate datasets,
// analyze graphs, build and persist statistics, and answer estimates, all
// from a shell. This is the operational surface a user pokes at before
// integrating the library.
//
// Usage:
//   pathest_cli [--threads N] [--graph G] <command> ...
//   pathest_cli generate <dataset> <out.graph> [scale] [seed]
//   pathest_cli stats <graph-file>
//   pathest_cli analyze <graph-file> <k> <ordering> <beta> <out.stats>
//   pathest_cli estimate <stats-file> [<path> ...]
//   pathest_cli accuracy <graph-file> <k> <ordering> <beta>
//   pathest_cli catalog verify [--json] <dir>
//   pathest_cli catalog convert <dir> --format text|binary|binary-v2
//   pathest_cli serve <socket> <catalog-dir> [key=value ...]
//   pathest_cli call [--retries N] <socket> <request words ...>
//   pathest_cli orderings
//
// The graph source of stats/analyze/accuracy is the <graph-file>
// positional, or the global --graph flag standing in for it; either may
// be "-" to read the edge list from stdin (mirroring estimate's stdin
// workload mode). Graphs load through the streaming ingest pipeline
// (chunked from_chars parse + parallel counting-sort build), and the
// resolved ingest configuration — thread count, chunking, plane kind —
// is echoed alongside the load, like the selectivity build config.
//
// estimate answers queries through the serving facade (core/estimator.h:
// scratch fast-path ranking + bucket lookup, one EstimateBatch call
// for the whole workload). Paths come from the command line, or — when none
// are given — from stdin, one label path (a/b/c) per line.
//
// --threads N controls the parallel selectivity engine (the dominant cost
// of analyze/accuracy): N worker threads, 0 = one per hardware core (the
// default). Results are bit-identical for every thread count; the flag
// only changes speed. It is validated up front (a malformed value is an
// error, not a silent fallback), and the commands that build ground truth
// echo the RESOLVED configuration — the post-clamp worker count and the
// task count — in their build report line.
//
// --format text|binary|binary-v2 picks the on-disk catalog format analyze
// writes and catalog convert targets (default text; binary is the
// checksummed v1 layout of core/serialize.h, binary-v2 the 64-byte aligned
// layout the daemon serves zero-copy — estimate and catalog verify sniff
// the format, so no flag on read).
// `catalog verify <dir>` checksum-walks every *.stats entry and exits
// nonzero if ANY entry fails, printing one line per entry; it is the
// operational integrity probe for a directory of persisted statistics.
// When the directory carries a maintenance journal (maint/deltas.journal)
// it is frame-walked too: every CRC checked, the last good offset
// reported; a torn tail (crash artifact that startup recovery truncates)
// is a warning, mid-file corruption is a failure (startup recovery keeps
// only the records before it and quarantines the file). With --json it prints
// one machine-readable JSON object instead (same exit-code contract),
// for monitoring that should not scrape text.
//
// `serve <socket> <catalog-dir>` runs the concurrent estimation daemon
// (serve/server.h): catalog entries served as immutable snapshots with
// atomic hot-swap on `reload`, bounded-queue load shedding, per-request
// deadlines, and degraded-mode serving of a partially corrupt catalog.
// Optional key=value args: workers=N queue=N deadline_ms=N idle_ms=N
// mmap_budget=BYTES (residency budget for zero-copy binary-v2 serving),
// plus graph=FILE maint_k=N compact_every=N to enable online maintenance
// (maint/online_maintenance.h): the update/compact protocol commands, a
// crash-safe fsync-before-ack edge-delta journal under
// <catalog-dir>/maint/, journal replay on startup, and incremental
// statistics refresh published through the same atomic snapshot swap.
// SIGTERM/SIGINT begin a graceful drain (in-flight requests answered)
// and the daemon exits 0. `call [--retries N] <socket> <words...>` sends
// one request line to a running daemon, prints the response line, and
// exits 0 iff the response is "ok ..." — the scripting/smoke-test
// client; --retries N adds exponential-backoff retry (jittered) on
// transport failures and protocol errors marked retriable.
//
// Exit codes are uniform across subcommands: 0 = success, 1 = runtime
// failure (including any failed estimate query or corrupt catalog entry,
// with the details on stderr), 2 = usage error.
//
// Runs with no arguments as a self-demo (generates a small moreno-like
// graph, analyzes it, estimates a few queries) so that it is exercised by
// simply running the binary.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/error.h"
#include "core/estimator.h"
#include "core/experiment.h"
#include "core/serialize.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "maint/delta_journal.h"
#include "ordering/factory.h"
#include "path/selectivity.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/safe_io.h"

using namespace pathest;  // NOLINT — example code favors brevity

namespace {

// Worker threads for selectivity evaluation; set by --threads (0 = one per
// hardware core). Shared by every subcommand that computes ground truth.
size_t g_num_threads = 0;

// On-disk catalog format for analyze's save and catalog convert's target;
// set by --format. Readers sniff, so there is no corresponding load flag.
CatalogFormat g_format = CatalogFormat::kText;
// True when --format appeared on the command line: `catalog convert`
// demands an explicit target instead of silently rewriting to text.
bool g_format_seen = false;

// Loads the graph named by `spec` — a file path, or "-" for stdin —
// through the streaming ingest pipeline, echoing the resolved ingest
// configuration (threads actually used, parse chunking, plane kind) the
// same way PrintBuildConfig echoes the selectivity build's.
Result<Graph> LoadCliGraph(const std::string& spec) {
  GraphLoadOptions options;
  options.num_threads = g_num_threads;
  GraphLoadStats stats;
  Result<Graph> graph = spec == "-"
                            ? ReadGraphText(&std::cin, options, &stats)
                            : LoadGraphFile(spec, options, &stats);
  if (graph.ok()) {
    std::printf(
        "graph ingest: %s |V|=%zu |E|=%zu |L|=%zu threads=%zu "
        "(requested %zu), chunks=%zu, plane=%s, load=%.1fms "
        "(read %.1f, parse %.1f, build %.1f)\n",
        spec == "-" ? "<stdin>" : spec.c_str(), graph->num_vertices(),
        graph->num_edges(), graph->num_labels(), stats.build.num_threads,
        g_num_threads, stats.num_chunks,
        PlaneKindName(stats.build.plane_kind), stats.total_ms, stats.read_ms,
        stats.parse_ms, stats.build.total_ms);
  }
  return graph;
}

SelectivityOptions CliSelectivityOptions() {
  SelectivityOptions options;
  options.num_threads = g_num_threads;
  return options;
}

// One-line echo of the RESOLVED build configuration (requested 0 becomes
// the hardware core count, then clamps to the build's task count), so a
// clamped or defaulted value is visible instead of silent.
void PrintBuildConfig(const Graph& graph, size_t k) {
  SelectivityOptions options = CliSelectivityOptions();
  std::printf("selectivity build: threads=%zu (requested %zu), tasks=%zu\n",
              ResolvedNumThreads(options, graph.num_labels(), k),
              g_num_threads, SelectivityTaskCount(graph.num_labels(), k));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  pathest_cli [--threads N] <command> ...\n"
      "  pathest_cli generate <dataset> <out.graph> [scale] [seed]\n"
      "  pathest_cli stats <graph-file>\n"
      "  pathest_cli analyze <graph-file> <k> <ordering> <beta> <out.stats>\n"
      "  pathest_cli estimate <stats-file> [<path> ...]\n"
      "      (no paths: read one label path per stdin line)\n"
      "  pathest_cli accuracy <graph-file> <k> <ordering> <beta>\n"
      "  pathest_cli catalog verify [--json] <dir>\n"
      "      (checksum-walk every *.stats entry AND the maintenance "
      "journal,\n"
      "       frame by frame; nonzero exit on any failure; a torn journal "
      "tail\n"
      "       is a warning, not a failure; --json prints one report "
      "object;\n"
      "       each healthy entry reports its format and, for binary-v2, "
      "alignment;\n"
      "       binary entries also report their header version)\n"
      "  pathest_cli catalog convert <dir> --format text|binary|binary-v2\n"
      "      (rewrite every entry to the target format in place via "
      "atomic rename;\n"
      "       full verify on read; corrupt entries are reported and left "
      "untouched;\n"
      "       older binary-v2 versions are rewritten as the current one)\n"
      "  pathest_cli serve <socket> <catalog-dir> [workers=N queue=N "
      "deadline_ms=N idle_ms=N graph=FILE maint_k=N compact_every=N "
      "mmap_budget=BYTES]\n"
      "      (estimation daemon: atomic snapshot hot-swap on reload, "
      "load shedding,\n"
      "       per-request deadlines, degraded-mode serving; SIGTERM "
      "drains gracefully;\n"
      "       graph=FILE enables online maintenance: the update/compact "
      "commands,\n"
      "       a crash-safe edge-delta journal, and incremental statistics "
      "refresh)\n"
      "  pathest_cli call [--retries N] <socket> <request words ...>\n"
      "      (one-shot client; prints the response line, exit 0 iff "
      "'ok ...';\n"
      "       --retries N retries transport failures and retriable "
      "errors\n"
      "       with exponential backoff + jitter, N extra attempts)\n"
      "  pathest_cli orderings\n"
      "datasets: moreno dbpedia snap-er snap-ff\n"
      "<graph-file> (or the global --graph flag standing in for it) may "
      "be '-' to read the edge list from stdin\n"
      "--threads N: selectivity AND ingest worker threads (0 = hardware "
      "cores, default)\n"
      "--format F: catalog format analyze writes / convert targets, "
      "text|binary|binary-v2 (text default; binary = checksummed catalog "
      "v1; binary-v2 = 64-byte aligned mmap-servable; readers sniff)\n");
  return 2;
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  auto spec = FindDatasetSpec(args[0]);
  if (!spec.ok()) return Fail(spec.status());
  double scale = args.size() > 2 ? std::atof(args[2].c_str()) : 1.0;
  uint64_t seed = args.size() > 3 ? std::strtoull(args[3].c_str(), nullptr, 10)
                                  : 42;
  auto graph = BuildDataset(spec->id, scale, seed);
  if (!graph.ok()) return Fail(graph.status());
  Status st = SaveGraphFile(*graph, args[1]);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: |V|=%zu |E|=%zu |L|=%zu\n", args[1].c_str(),
              graph->num_vertices(), graph->num_edges(),
              graph->num_labels());
  return 0;
}

int CmdStats(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  auto graph = LoadCliGraph(args[0]);
  if (!graph.ok()) return Fail(graph.status());
  GraphStats stats = ComputeGraphStats(*graph);
  std::printf("%s", FormatGraphStats(*graph, stats).c_str());
  return 0;
}

int CmdAnalyze(const std::vector<std::string>& args) {
  if (args.size() != 5) return Usage();
  auto graph = LoadCliGraph(args[0]);
  if (!graph.ok()) return Fail(graph.status());
  size_t k = std::strtoull(args[1].c_str(), nullptr, 10);
  size_t beta = std::strtoull(args[3].c_str(), nullptr, 10);
  PrintBuildConfig(*graph, k);
  auto truth = ComputeSelectivities(*graph, k, CliSelectivityOptions());
  if (!truth.ok()) return Fail(truth.status());
  auto ordering = MakeOrdering(args[2], *graph, k);
  if (!ordering.ok()) return Fail(ordering.status());
  auto estimator = PathHistogram::Build(*truth, std::move(*ordering),
                                        HistogramType::kVOptimal, beta);
  if (!estimator.ok()) return Fail(estimator.status());
  Status st = SavePathHistogram(*estimator, *graph, args[4], g_format);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s (%s): %s over |L_%zu|=%llu\n", args[4].c_str(),
              CatalogFormatName(g_format), estimator->Describe().c_str(), k,
              static_cast<unsigned long long>(estimator->ordering().size()));
  return 0;
}

int CmdEstimate(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  auto loaded = LoadPathHistogram(args[0]);
  if (!loaded.ok()) return Fail(loaded.status());
  std::printf("%s\n", loaded->estimator.Describe().c_str());

  // Queries come from the remaining arguments, or — with none — one label
  // path per stdin line (the batch-serving mode).
  std::vector<std::string> queries(args.begin() + 1, args.end());
  if (queries.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) queries.push_back(line);
    }
  }
  if (queries.empty()) return Usage();

  // Everything goes through the serving facade: parse the whole workload,
  // answer it with one EstimateBatch call, then print in input order.
  Estimator serving(loaded->estimator);
  std::vector<LabelPath> paths;
  std::vector<size_t> path_of_query(queries.size(), SIZE_MAX);
  std::vector<std::string> errors(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto path = LabelPath::Parse(queries[i], loaded->labels);
    if (!path.ok()) {
      errors[i] = path.status().ToString();
      continue;
    }
    if (!serving.ordering().space().Contains(*path)) {
      errors[i] = "outside analyzed space";
      continue;
    }
    path_of_query[i] = paths.size();
    paths.push_back(*path);
  }
  std::vector<double> estimates(paths.size());
  serving.EstimateBatch(paths, estimates);
  size_t failed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (path_of_query[i] == SIZE_MAX) {
      ++failed;
      std::printf("%-30s  <%s>\n", queries[i].c_str(), errors[i].c_str());
    } else {
      std::printf("%-30s  e = %.2f\n", queries[i].c_str(),
                  estimates[path_of_query[i]]);
    }
  }
  // A scripted caller must be able to see "some queries did not parse"
  // without scraping stdout: failures also mean a nonzero exit.
  if (failed > 0) {
    std::fprintf(stderr, "error: %zu of %zu queries failed\n", failed,
                 queries.size());
    return 1;
  }
  return 0;
}

// `catalog convert <dir> --format F`: rewrites every entry to the target
// format IN PLACE through the atomic-rename writer — a crash mid-convert
// leaves each entry either fully old-format or fully new-format, never
// torn. An entry already in the target format is skipped unless it is an
// older binary-v2 version, which is rewritten as the current one. Every
// entry is fully verified on the way in (LoadPathHistogram runs the
// strictest tier for its format), so a corrupt entry is reported and left
// untouched rather than laundered into a fresh file.
int CmdCatalogConvert(const std::string& dir) {
  if (!g_format_seen) {
    return Fail(Status::InvalidArgument(
        "catalog convert requires an explicit --format "
        "text|binary|binary-v2 target"));
  }
  auto entries = ListCatalogEntryPaths(dir);
  if (!entries.ok()) return Fail(entries.status());
  size_t converted = 0;
  size_t skipped = 0;
  size_t failed = 0;
  for (const std::string& path : *entries) {
    uint32_t version = 0;
    auto current = SniffCatalogFormat(path, &version);
    if (current.ok() && *current == g_format &&
        (g_format != CatalogFormat::kBinaryV2 ||
         version == binfmt::kVersionV2)) {
      ++skipped;
      std::printf("skip      %s (already %s)\n", path.c_str(),
                  CatalogFormatName(g_format));
      continue;
    }
    auto loaded = LoadPathHistogram(path);
    if (!loaded.ok()) {
      ++failed;
      std::fprintf(stderr, "CORRUPT   %s: %s (left untouched)\n",
                   path.c_str(), loaded.status().ToString().c_str());
      continue;
    }
    Status st = SaveLoadedPathHistogram(*loaded, path, g_format);
    if (!st.ok()) {
      ++failed;
      std::fprintf(stderr, "FAILED    %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      continue;
    }
    ++converted;
    std::printf("converted %s -> %s\n", path.c_str(),
                CatalogFormatName(g_format));
  }
  std::printf("convert %s: %zu converted, %zu skipped, %zu failed\n",
              dir.c_str(), converted, skipped, failed);
  return failed > 0 ? 1 : 0;
}

int CmdCatalog(const std::vector<std::string>& args) {
  // `catalog verify [--json] <dir>`: --json may come before or after the
  // directory; the exit-code contract (nonzero iff any entry is corrupt or
  // the walk fails) is identical in both output modes.
  std::vector<std::string> rest;
  bool json = false;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else {
      rest.push_back(arg);
    }
  }
  if (rest.size() == 2 && rest[0] == "convert") {
    return CmdCatalogConvert(rest[1]);
  }
  if (rest.size() != 2 || rest[0] != "verify") return Usage();
  auto report = VerifyCatalogDir(rest[1]);
  if (!report.ok()) return Fail(report.status());

  // The maintenance journal, when present, is part of the catalog's
  // integrity story: walk it frame by frame (ScanDeltaJournal checks every
  // CRC) without modifying it. A torn tail is a WARNING (startup recovery
  // amputates it); mid-file corruption or a bad header is a failure.
  const std::string journal_path = rest[1] + "/maint/deltas.journal";
  auto journal = maint::ScanDeltaJournal(journal_path);
  const bool have_journal =
      journal.ok() || journal.status().code() != StatusCode::kNotFound;
  bool journal_corrupt = false;
  std::string journal_json = "null";
  if (have_journal) {
    if (journal.ok()) {
      size_t edges = 0;
      for (const auto& record : journal->records) {
        if (record.is_edge()) ++edges;
      }
      journal_json = "{\"path\":\"" + JsonEscape(journal_path) + "\"";
      journal_json += ",\"records\":" + std::to_string(journal->records.size());
      journal_json += ",\"edge_records\":" + std::to_string(edges);
      journal_json +=
          ",\"last_good_offset\":" + std::to_string(journal->last_good_offset);
      journal_json += ",\"file_bytes\":" + std::to_string(journal->file_bytes);
      journal_json +=
          std::string(",\"torn_tail\":") + (journal->torn_tail ? "true" : "false");
      journal_json += ",\"tail_bytes\":" + std::to_string(journal->tail_bytes);
      journal_json += "}";
    } else {
      journal_corrupt = true;
      journal_json = "{\"path\":\"" + JsonEscape(journal_path) +
                     "\",\"error\":\"" +
                     JsonEscape(journal.status().message()) + "\"}";
    }
  }
  const bool failed = !report->failures.empty() || journal_corrupt;

  if (json) {
    // Splice the journal status into the report object so consumers keep
    // one top-level JSON value.
    std::string out = CatalogLoadReportToJson(*report, rest[1]);
    out.insert(out.size() - 1, ",\"journal\":" + journal_json);
    std::printf("%s\n", out.c_str());
    return failed ? 1 : 0;
  }
  for (size_t i = 0; i < report->loaded.size(); ++i) {
    const std::string& name = report->loaded[i];
    // entries[] is parallel to loaded[] when the format sniff succeeded.
    if (i < report->entries.size() && report->entries[i].name == name) {
      const CatalogEntryInfo& e = report->entries[i];
      std::printf("ok        %s format=%s aligned=%s", name.c_str(),
                  e.format.c_str(), e.aligned ? "yes" : "no");
      if (e.version != 0) std::printf(" version=%u", e.version);
      std::printf("\n");
    } else {
      std::printf("ok        %s\n", name.c_str());
    }
  }
  for (const CatalogLoadFailure& f : report->failures) {
    std::string where = f.path;
    if (!f.section.empty()) where += " [" + f.section + "]";
    std::fprintf(stderr, "CORRUPT   %s: %s\n", where.c_str(),
                 f.status.ToString().c_str());
  }
  if (have_journal) {
    if (journal.ok()) {
      size_t edges = 0;
      for (const auto& record : journal->records) {
        if (record.is_edge()) ++edges;
      }
      std::printf("journal   %s: %zu records (%zu edges), "
                  "last_good_offset=%llu%s\n",
                  journal_path.c_str(), journal->records.size(), edges,
                  static_cast<unsigned long long>(journal->last_good_offset),
                  journal->torn_tail ? " [TORN TAIL: recovery will truncate]"
                                     : "");
    } else {
      std::fprintf(stderr, "CORRUPT   journal %s: %s\n", journal_path.c_str(),
                   journal.status().ToString().c_str());
    }
  }
  std::printf("verified %s: %zu ok, %zu corrupt\n", rest[1].c_str(),
              report->loaded.size(),
              report->failures.size() + (journal_corrupt ? 1 : 0));
  return failed ? 1 : 0;
}

// SIGTERM/SIGINT raise this flag; the serve main loop polls it and turns
// it into a graceful drain. A flag (not direct RequestStop from the
// handler) keeps the handler async-signal-safe.
volatile std::sig_atomic_t g_serve_signal = 0;

void ServeSignalHandler(int) { g_serve_signal = 1; }

int CmdServe(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  serve::ServeOptions options;
  options.socket_path = args[0];
  options.catalog_dir = args[1];
  for (size_t i = 2; i < args.size(); ++i) {
    const size_t eq = args[i].find('=');
    if (eq == std::string::npos) {
      return Fail(Status::InvalidArgument(
          "serve options are key=value pairs, got '" + args[i] + "'"));
    }
    const std::string key = args[i].substr(0, eq);
    // String-valued options first — everything below parses as u64.
    if (key == "graph") {
      options.graph_path = args[i].substr(eq + 1);
      continue;
    }
    auto value = serve::ParseU64Option(key, args[i].substr(eq + 1));
    if (!value.ok()) return Fail(value.status());
    if (key == "workers") {
      if (*value == 0) {
        return Fail(Status::InvalidArgument("workers must be >= 1"));
      }
      options.num_workers = *value;
    } else if (key == "queue") {
      options.queue_capacity = *value;
    } else if (key == "deadline_ms") {
      options.default_deadline_ms = *value;
    } else if (key == "idle_ms") {
      options.idle_timeout_ms = *value;
    } else if (key == "maint_k") {
      options.maint_k = *value;
    } else if (key == "compact_every") {
      options.compact_every_records = *value;
    } else if (key == "mmap_budget") {
      options.mmap_cache_bytes = *value;
    } else {
      return Fail(Status::InvalidArgument(
          "unknown serve option '" + key +
          "' (workers, queue, deadline_ms, idle_ms, graph, maint_k, "
          "compact_every, mmap_budget)"));
    }
  }

  // Handlers go in BEFORE Start(): the socket becomes connectable inside
  // Start, and a supervisor may signal the moment it appears.
  std::signal(SIGTERM, ServeSignalHandler);
  std::signal(SIGINT, ServeSignalHandler);

  serve::ServeServer server(options);
  Status st = server.Start();
  if (!st.ok()) return Fail(st);
  const auto state = server.registry_state();
  std::printf("serving %zu catalog entr%s from %s on %s "
              "(workers=%zu queue=%zu deadline_ms=%llu)%s\n",
              state->entries.size(), state->entries.size() == 1 ? "y" : "ies",
              options.catalog_dir.c_str(), options.socket_path.c_str(),
              options.num_workers, options.queue_capacity,
              static_cast<unsigned long long>(options.default_deadline_ms),
              state->degraded ? " [DEGRADED: some entries quarantined]" : "");
  for (const CatalogLoadFailure& f : server.initial_report().failures) {
    std::fprintf(stderr, "quarantined %s: %s\n", f.path.c_str(),
                 f.status.ToString().c_str());
  }
  std::fflush(stdout);

  // Park until a signal or a `shutdown` request begins the drain.
  while (g_serve_signal == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("draining (%s)...\n",
              g_serve_signal != 0 ? "signal" : "shutdown request");
  std::fflush(stdout);
  server.RequestStop();
  server.Wait();
  std::printf("drained; served %llu requests, shed %llu connections\n",
              static_cast<unsigned long long>(
                  server.counters().requests.load()),
              static_cast<unsigned long long>(
                  server.counters().connections_shed.load()));
  return 0;
}

int CmdCall(const std::vector<std::string>& args) {
  // `call <socket> [--retries N] <request words...>`: with retries, the
  // request is resent (fresh connection, exponential backoff + jitter) on
  // transport failures and typed RETRIABLE protocol errors; fatal errors
  // and "ok" return immediately (serve/client.h CallWithRetry).
  std::vector<std::string> rest;
  size_t retries = 0;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--retries") {
      if (i + 1 >= args.size()) return Usage();
      auto parsed = serve::ParseU64Option("--retries", args[++i]);
      if (!parsed.ok()) return Fail(parsed.status());
      retries = *parsed;
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.size() < 2) return Usage();
  std::string request = rest[1];
  for (size_t i = 2; i < rest.size(); ++i) request += " " + rest[i];

  auto response = [&]() -> Result<std::string> {
    if (retries == 0) {
      auto client = serve::ServeClient::Connect(rest[0]);
      if (!client.ok()) return client.status();
      return client->Call(request);
    }
    serve::RetryOptions retry;
    retry.max_attempts = retries + 1;
    return serve::CallWithRetry(rest[0], request, retry);
  }();
  if (!response.ok()) return Fail(response.status());
  std::printf("%s\n", response->c_str());
  // "ok ..." is success; "err ..." (typed protocol error) exits 1 so smoke
  // tests can assert on the exit code alone.
  return response->rfind("ok", 0) == 0 ? 0 : 1;
}

int CmdAccuracy(const std::vector<std::string>& args) {
  if (args.size() != 4) return Usage();
  auto graph = LoadCliGraph(args[0]);
  if (!graph.ok()) return Fail(graph.status());
  size_t k = std::strtoull(args[1].c_str(), nullptr, 10);
  size_t beta = std::strtoull(args[3].c_str(), nullptr, 10);
  PrintBuildConfig(*graph, k);
  auto truth = ComputeSelectivities(*graph, k, CliSelectivityOptions());
  if (!truth.ok()) return Fail(truth.status());
  auto result = MeasureAccuracy(*graph, *truth, args[2], k, beta,
                                HistogramType::kVOptimal);
  if (!result.ok()) return Fail(result.status());
  std::printf("ordering=%s k=%zu beta=%zu queries=%llu\n"
              "mean |err| = %.4f   median = %.4f   p90 = %.4f   "
              "exact = %.1f%%\n",
              result->ordering.c_str(), k, beta,
              static_cast<unsigned long long>(result->errors.num_queries),
              result->errors.mean_abs_error, result->errors.median_abs_error,
              result->errors.p90_abs_error,
              100.0 * result->errors.exact_fraction);
  return 0;
}

int CmdOrderings() {
  std::printf("paper orderings:");
  for (const std::string& name : PaperOrderingNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nextras: sum-alph gray-alph gray-card random "
              "(+ ideal, sum-L2 via library API)\n");
  return 0;
}

int SelfDemo() {
  std::printf("pathest_cli self-demo (run with a subcommand for real use; "
              "see --help)\n\n");
  auto graph = BuildDataset(DatasetId::kMorenoHealth, 0.1, 42);
  if (!graph.ok()) return Fail(graph.status());
  PrintBuildConfig(*graph, 3);
  auto truth = ComputeSelectivities(*graph, 3, CliSelectivityOptions());
  if (!truth.ok()) return Fail(truth.status());
  auto ordering = MakeOrdering("sum-based", *graph, 3);
  if (!ordering.ok()) return Fail(ordering.status());
  auto estimator = PathHistogram::Build(*truth, std::move(*ordering),
                                        HistogramType::kVOptimal, 32);
  if (!estimator.ok()) return Fail(estimator.status());
  std::printf("built %s on a 0.1-scale moreno-like graph\n",
              estimator->Describe().c_str());
  for (const char* q : {"1", "1/2", "2/1/3"}) {
    auto path = LabelPath::Parse(q, graph->labels());
    if (!path.ok()) continue;
    std::printf("  %-8s true=%llu est=%.2f\n", q,
                static_cast<unsigned long long>(truth->Get(*path)),
                estimator->Estimate(*path));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A broken pipe (e.g. `pathest_cli ... | head`, or a serve client dying
  // mid-response) must be an error return, never a process-killing signal.
  IgnoreSigpipeForProcess();
  std::vector<std::string> all(argv + 1, argv + argc);
  // Strip the global flags ("--flag value" or "--flag=value") wherever they
  // appear. Every value is validated HERE, before any command runs: a
  // malformed --threads used to silently parse to 0 (= all hardware cores)
  // via strtoull.
  std::vector<std::string> rest;
  bool threads_seen = false;
  bool graph_seen = false;
  bool format_seen = false;
  std::string threads_text;
  std::string graph_spec;
  std::string format_name;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == "--threads" && i + 1 < all.size()) {
      threads_seen = true;
      threads_text = all[++i];
    } else if (all[i].rfind("--threads=", 0) == 0) {
      threads_seen = true;
      threads_text = all[i].substr(10);
    } else if (all[i] == "--graph" && i + 1 < all.size()) {
      graph_seen = true;
      graph_spec = all[++i];
    } else if (all[i].rfind("--graph=", 0) == 0) {
      graph_seen = true;
      graph_spec = all[i].substr(8);
    } else if (all[i] == "--format" && i + 1 < all.size()) {
      format_seen = true;
      format_name = all[++i];
    } else if (all[i].rfind("--format=", 0) == 0) {
      format_seen = true;
      format_name = all[i].substr(9);
    } else {
      rest.push_back(all[i]);
    }
  }
  if (threads_seen) {
    // An empty or non-numeric value is an error, not a silent default.
    if (threads_text.empty() ||
        threads_text.find_first_not_of("0123456789") != std::string::npos) {
      return Fail(Status::InvalidArgument(
          "invalid --threads '" + threads_text +
          "' (expected a non-negative integer; 0 = hardware cores)"));
    }
    g_num_threads = std::strtoull(threads_text.c_str(), nullptr, 10);
  }
  if (format_seen) {
    auto format = ParseCatalogFormat(format_name);
    if (!format.ok()) return Fail(format.status());
    g_format = *format;
    g_format_seen = true;
  }
  if (rest.empty()) return SelfDemo();
  std::string cmd = rest[0];
  std::vector<std::string> args(rest.begin() + 1, rest.end());
  const bool takes_graph =
      cmd == "stats" || cmd == "analyze" || cmd == "accuracy";
  // --graph stands in for the <graph-file> positional of the commands
  // that load one ("-" = stdin), so pipelines can keep the source up
  // front: `pathest_cli --graph - stats < edges.txt`.
  if (graph_seen) {
    if (!takes_graph) {
      std::fprintf(stderr,
                   "note: --graph has no effect on '%s' (it names the "
                   "graph source of stats/analyze/accuracy)\n",
                   cmd.c_str());
    } else {
      args.insert(args.begin(), graph_spec);
    }
  }
  // --threads only matters to commands that load a graph (ingest, and the
  // selectivity build of analyze/accuracy); flag a no-op combination
  // instead of ignoring it silently.
  if (threads_seen && !takes_graph) {
    std::fprintf(stderr,
                 "note: --threads has no effect on '%s' (it configures "
                 "graph ingest and the selectivity build)\n",
                 cmd.c_str());
  }
  if (format_seen && cmd != "analyze" && cmd != "catalog") {
    std::fprintf(stderr,
                 "note: --format has no effect on '%s' (it picks the "
                 "catalog format analyze writes and catalog convert's "
                 "target; readers sniff)\n",
                 cmd.c_str());
  }
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "analyze") return CmdAnalyze(args);
  if (cmd == "estimate") return CmdEstimate(args);
  if (cmd == "accuracy") return CmdAccuracy(args);
  if (cmd == "catalog") return CmdCatalog(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "call") return CmdCall(args);
  if (cmd == "orderings") return CmdOrderings();
  return Usage();
}
