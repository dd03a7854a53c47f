#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/thread_pool.h"
#include "util/timer.h"

namespace pathest {

namespace {

// In-line whitespace, per the classic locale minus '\n' (lines are split
// before tokenization, exactly like getline + istringstream).
inline bool IsLineSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

// istream-compatible unsigned extraction on a cursor: optional sign
// (num_get wraps '-' like strtoull), digit run via from_chars, overflow
// fails with the digits consumed (failbit semantics). `ok` false and
// next == p means "no numeric prefix at all".
struct U64Parse {
  uint64_t value;
  const char* next;
  bool ok;
};

U64Parse ParseU64(const char* p, const char* end) {
  const char* q = p;
  bool negative = false;
  if (q != end && (*q == '+' || *q == '-')) {
    negative = *q == '-';
    ++q;
  }
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(q, end, value);
  if (ptr == q) return {0, p, false};
  if (ec == std::errc::result_out_of_range) return {0, ptr, false};
  return {negative ? uint64_t{0} - value : value, ptr, true};
}

// One newline-aligned slice of the input, parsed independently. Labels
// are chunk-local first-appearance ids until the serial merge.
struct ParsedChunk {
  std::vector<Edge> edges;           // Edge::label is a chunk-local id
  std::vector<std::string_view> labels;  // local id -> name, in-order
  size_t num_lines = 0;
  size_t num_vertices = 0;           // max endpoint + 1
  bool has_error = false;
  bool error_is_range = false;       // OutOfRange vs malformed IOError
  size_t error_line_offset = 0;      // 0-based line within the chunk
  std::string error_line_text;       // comment-stripped malformed line
};

void ParseChunk(const char* begin, const char* end, ParsedChunk* out) {
  std::unordered_map<std::string_view, LabelId> label_index;
  const char* p = begin;
  while (p < end) {
    const char* line_begin = p;
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* line_end = nl == nullptr ? end : nl;
    p = nl == nullptr ? end : nl + 1;
    const size_t line_offset = out->num_lines++;
    // Strip comments.
    const char* hash = static_cast<const char*>(memchr(
        line_begin, '#', static_cast<size_t>(line_end - line_begin)));
    if (hash != nullptr) line_end = hash;

    const char* c = line_begin;
    while (c < line_end && IsLineSpace(*c)) ++c;
    if (c == line_end) continue;  // blank / comment-only line
    const U64Parse src = ParseU64(c, line_end);
    if (!src.ok) continue;  // failed first extraction skips the line
    c = src.next;

    while (c < line_end && IsLineSpace(*c)) ++c;
    const char* label_begin = c;
    while (c < line_end && !IsLineSpace(*c)) ++c;
    const std::string_view label(label_begin,
                                 static_cast<size_t>(c - label_begin));

    while (c < line_end && IsLineSpace(*c)) ++c;
    const U64Parse dst = ParseU64(c, line_end);
    if (label.empty() || !dst.ok) {
      out->has_error = true;
      out->error_line_offset = line_offset;
      out->error_line_text.assign(
          line_begin, static_cast<size_t>(line_end - line_begin));
      return;
    }
    // Trailing junk after the dst is ignored, as with istream extraction.
    if (src.value > UINT32_MAX || dst.value > UINT32_MAX) {
      out->has_error = true;
      out->error_is_range = true;
      out->error_line_offset = line_offset;
      return;
    }

    const auto [it, inserted] =
        label_index.emplace(label, static_cast<LabelId>(out->labels.size()));
    if (inserted) out->labels.push_back(label);
    out->edges.push_back(Edge{static_cast<VertexId>(src.value), it->second,
                              static_cast<VertexId>(dst.value)});
    const size_t needed =
        static_cast<size_t>(std::max(src.value, dst.value)) + 1;
    if (needed > out->num_vertices) out->num_vertices = needed;
  }
}

// Chunks below this size parse serially — thread-pool spawn would
// dominate the from_chars sweep.
constexpr size_t kMinParallelParseBytes = 1u << 20;
constexpr size_t kChunksPerThread = 4;  // parse-time skew smoothing

}  // namespace

Result<Graph> ReadGraphText(std::istream* in, const GraphLoadOptions& options,
                            GraphLoadStats* stats_out) {
  Timer total_timer;
  Timer phase;
  GraphLoadStats stats;

  // Slurp once; all tokenization runs on cursors into this buffer.
  const std::string content{std::istreambuf_iterator<char>(*in),
                            std::istreambuf_iterator<char>()};
  stats.read_ms = phase.ElapsedMillis();

  phase.Reset();
  size_t threads = options.num_threads == 0 ? ThreadPool::DefaultThreads()
                                            : options.num_threads;
  if (content.size() < kMinParallelParseBytes) threads = 1;
  stats.num_threads = threads;

  // Newline-aligned chunk boundaries: each chunk ends just past a '\n'
  // (or at EOF), so no line straddles two chunks and concatenating
  // per-chunk results in chunk order is exactly file order.
  std::vector<const char*> bounds;
  const char* data = content.data();
  const char* data_end = data + content.size();
  bounds.push_back(data);
  if (threads > 1) {
    const size_t target = threads * kChunksPerThread;
    const size_t step = content.size() / target;
    for (size_t i = 1; i < target; ++i) {
      const char* probe = data + i * step;
      if (probe <= bounds.back()) continue;
      const char* nl = static_cast<const char*>(
          memchr(probe, '\n', static_cast<size_t>(data_end - probe)));
      if (nl == nullptr) break;
      bounds.push_back(nl + 1);
    }
  }
  bounds.push_back(data_end);
  const size_t num_chunks = bounds.size() - 1;
  stats.num_chunks = num_chunks;

  std::vector<ParsedChunk> chunks(num_chunks);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(num_chunks, [&](size_t c, size_t) {
      ParseChunk(bounds[c], bounds[c + 1], &chunks[c]);
    });
  }

  // Earliest error line wins, as in the sequential reader: chunks are in
  // file order and each stops at its first error.
  size_t line_base = 0;
  for (const ParsedChunk& chunk : chunks) {
    if (chunk.has_error) {
      const size_t line_no = line_base + chunk.error_line_offset + 1;
      if (chunk.error_is_range) {
        return Status::OutOfRange("vertex id exceeds 32 bits at line " +
                                  std::to_string(line_no));
      }
      return Status::IOError("malformed edge at line " +
                             std::to_string(line_no) + ": '" +
                             chunk.error_line_text + "'");
    }
    line_base += chunk.num_lines;
  }

  // Serial chunk-order label merge: interning each chunk's local table in
  // order reproduces file-order first-appearance ids exactly — a label's
  // first chunk is its first file appearance, and within a chunk local
  // ids are already first-appearance ordered.
  LabelDictionary labels;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  std::vector<std::vector<LabelId>> local_to_global(num_chunks);
  std::vector<size_t> edge_base(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    local_to_global[c].reserve(chunks[c].labels.size());
    for (const std::string_view name : chunks[c].labels) {
      local_to_global[c].push_back(labels.Intern(std::string(name)));
    }
    num_vertices = std::max(num_vertices, chunks[c].num_vertices);
    num_edges += chunks[c].edges.size();
    edge_base[c + 1] = num_edges;
  }
  std::vector<Edge> edges(num_edges);
  {
    ThreadPool pool(threads);
    pool.ParallelFor(num_chunks, [&](size_t c, size_t) {
      const std::vector<LabelId>& map = local_to_global[c];
      Edge* out = edges.data() + edge_base[c];
      for (const Edge& e : chunks[c].edges) {
        *out++ = Edge{e.src, map[e.label], e.dst};
      }
    });
  }
  stats.parse_ms = phase.ElapsedMillis();

  GraphBuilder builder;
  builder.Adopt(std::move(labels), std::move(edges), num_vertices);
  GraphBuildOptions build_options;
  build_options.with_reverse = options.with_reverse;
  build_options.num_threads = options.num_threads;
  Result<Graph> graph = builder.Build(build_options, &stats.build);
  stats.total_ms = total_timer.ElapsedMillis();
  if (stats_out != nullptr) *stats_out = stats;
  return graph;
}

Result<Graph> ReadGraphText(std::istream* in, bool with_reverse) {
  GraphLoadOptions options;
  options.with_reverse = with_reverse;
  return ReadGraphText(in, options);
}

Result<Graph> LoadGraphFile(const std::string& path,
                            const GraphLoadOptions& options,
                            GraphLoadStats* stats) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open graph file: " + path);
  }
  return ReadGraphText(&in, options, stats);
}

Result<Graph> LoadGraphFile(const std::string& path, bool with_reverse) {
  GraphLoadOptions options;
  options.with_reverse = with_reverse;
  return LoadGraphFile(path, options);
}

Status WriteGraphText(const Graph& graph, std::ostream* out) {
  (*out) << "# pathest edge-list v1: <src> <label> <dst>\n";
  // Stream per label, per source, straight off the CSR — (label, src,
  // dst) order, identical to the CollectEdges-based writer's output —
  // through one flat buffer instead of a materialized edge list.
  constexpr size_t kFlushBytes = 1u << 20;
  std::string buf;
  buf.reserve(kFlushBytes + 128);
  char digits[20];
  const auto append_u32 = [&buf, &digits](uint32_t v) {
    const auto [ptr, ec] = std::to_chars(digits, digits + sizeof(digits), v);
    (void)ec;
    buf.append(digits, static_cast<size_t>(ptr - digits));
  };
  const size_t num_vertices = graph.num_vertices();
  for (LabelId l = 0; l < graph.num_labels(); ++l) {
    const std::string& name = graph.labels().Name(l);
    const Graph::CsrView view = graph.ForwardView(l);
    for (size_t v = 0; v < num_vertices; ++v) {
      for (uint64_t i = view.offsets[v]; i < view.offsets[v + 1]; ++i) {
        append_u32(static_cast<uint32_t>(v));
        buf.push_back(' ');
        buf.append(name);
        buf.push_back(' ');
        append_u32(view.targets[i]);
        buf.push_back('\n');
        if (buf.size() >= kFlushBytes) {
          out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
          buf.clear();
        }
      }
    }
  }
  if (!buf.empty()) {
    out->write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  if (!out->good()) return Status::IOError("graph write failed");
  return Status::OK();
}

Status SaveGraphFile(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open graph file for writing: " + path);
  }
  return WriteGraphText(graph, &out);
}

}  // namespace pathest
