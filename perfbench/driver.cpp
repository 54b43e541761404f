// Benchmark driver: runs one pass of one workload in a fresh process.
//
//   perfbench_driver <corpus|daemon-edit|ingest> <manifest> <out.json>
//                    [--trace <spans.json>]
//
// The manifest (written by run.py from the workload seed) lists the
// warm-up slice, the timed ops and each op's known answer. A pass runs the
// set-up, then every op in order on one thread, times each op, checks
// its answer, and writes one JSON object with the pass's metrics, counts,
// digests and (when traced) per-layer self times to <out.json>.
//
// Untraced passes call the program the way its users do: analyze_file
// (the drive_corpus body at jobs=1), Service::handle_line, and
// ingest_dump_set. Traced passes make the same ops through the public
// per-layer calls instead, each wrapped in a span (spans.hpp).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtdl/detect/deadlock.hpp"
#include "gtdl/detect/gml_baseline.hpp"
#include "gtdl/detect/new_push.hpp"
#include "gtdl/frontend/driver.hpp"
#include "gtdl/frontend/infer.hpp"
#include "gtdl/frontend/parser.hpp"
#include "gtdl/frontend/typecheck.hpp"
#include "gtdl/graph/csr.hpp"
#include "gtdl/graph/graph.hpp"
#include "gtdl/gtype/intern.hpp"
#include "gtdl/gtype/parse.hpp"
#include "gtdl/gtype/wellformed.hpp"
#include "gtdl/ingest/ingest.hpp"
#include "gtdl/mml/driver.hpp"
#include "gtdl/par/corpus.hpp"
#include "gtdl/par/engine.hpp"
#include "gtdl/service/service.hpp"
#include "gtdl/tj/join_policy.hpp"
#include "gtdl/tj/trace.hpp"
#include "bench_common.hpp"
#include "spans.hpp"

namespace {

using perfbench::Span;
using perfbench::Tracer;
using perfbench::now_ns;

// ---------------------------------------------------------------------------
// Small utilities.

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= 0xff;
  h *= 1099511628211ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::vector<std::string>> read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open manifest " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string f; fields >> f;) row.push_back(f);
    if (!row.empty()) rows.push_back(std::move(row));
  }
  return rows;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// The unsigned integer right before `marker` in `text` (e.g. the 12 in
// "12 graphs"), or -1.
long long number_before(const std::string& text, const std::string& marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos || at == 0) return -1;
  std::size_t begin = at;
  while (begin > 0 && text[begin - 1] >= '0' && text[begin - 1] <= '9') --begin;
  if (begin == at) return -1;
  return std::stoll(text.substr(begin, at - begin));
}

// The unsigned integer right after `"key":` in a flat JSON response, or -1.
long long json_int(const std::string& text, const std::string& key,
                   std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return -1;
  std::size_t i = at + needle.size();
  long long v = 0;
  bool any = false;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    v = v * 10 + (text[i] - '0');
    any = true;
    ++i;
  }
  return any ? v : -1;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one pass reports.
struct PassResult {
  std::string workload;
  bool traced = false;
  std::size_t warmup_ops = 0;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  double setup_s = 0;
  double loop_s = 0;
  double items = 0;
  std::vector<double> op_ms;
  std::uint64_t verdict_digest = kFnvBasis;  // verdict bits only
  std::uint64_t text_digest = kFnvBasis;     // full rendered output
  std::map<std::string, double> counts;      // must repeat exactly
  std::map<std::string, double> extra;       // informational
  std::map<std::string, perfbench::LayerTotals> layers;
  double traced_op_ms = 0;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void verdict(const std::string& bits) { verdict_digest = fnv1a(verdict_digest, bits); }
  void text(const std::string& s) { text_digest = fnv1a(text_digest, s); }
};

// ---------------------------------------------------------------------------
// corpus: one verdict per file, every fourth with the GML baseline.

struct CorpusOp {
  std::string path;
  bool baseline = false;
  int want_exit = 0;
  int want_gml = -1;  // 1 = reports deadlock, 0 = accepts, -1 = no baseline
};

struct CorpusOutcome {
  int exit = 2;
  int gml = -1;
  long long graphs = 0;
};

// Untraced: exactly what drive_corpus does per file at jobs=1.
CorpusOutcome corpus_untraced(const CorpusOp& op, gtdl::Engine& engine,
                              PassResult& r) {
  gtdl::CorpusOptions options;
  options.baseline = op.baseline;
  const gtdl::FileReport report = gtdl::analyze_file(op.path, options, &engine);
  CorpusOutcome out;
  out.exit = report.exit_code;
  if (op.baseline) {
    if (report.text.find("): reports deadlock-free") != std::string::npos) {
      out.gml = 0;
    } else if (report.text.find("): reports deadlock") != std::string::npos) {
      out.gml = 1;
    }
    out.graphs = std::max(0LL, number_before(report.text, " graphs"));
  }
  r.text(report.text);
  return out;
}

// Traced: the same analysis as analyze_file, one span per public call.
CorpusOutcome corpus_traced(const CorpusOp& op, gtdl::Engine& engine,
                            Tracer& tracer, PassResult& r) {
  CorpusOutcome out;
  const std::string source = read_file(op.path);
  gtdl::DiagnosticEngine diags;
  gtdl::GTypePtr gtype;
  if (ends_with(op.path, ".fut")) {
    std::optional<gtdl::Program> program;
    {
      Span span(tracer, "frontend.parse");
      program = gtdl::parse_program(source, diags);
      if (!program) span.fail();
    }
    if (!program) return out;
    {
      Span span(tracer, "frontend.typecheck");
      if (!gtdl::typecheck_program(*program, diags)) {
        span.fail();
        return out;
      }
    }
    Span span(tracer, "frontend.infer");
    auto inferred = gtdl::infer_graph_types(*program, diags, gtdl::InferOptions{});
    if (!inferred) {
      span.fail();
      return out;
    }
    gtype = inferred->program_gtype;
    r.counts["frontend.gtype_nodes"] += static_cast<double>(gtdl::facts_of(gtype)->stats.nodes);
  } else if (ends_with(op.path, ".mml")) {
    Span span(tracer, "mml.compile");
    auto compiled = gtdl::mml::compile_mml(source, diags, gtdl::InferOptions{});
    if (!compiled) {
      span.fail();
      return out;
    }
    gtype = compiled->inferred.program_gtype;
  } else {
    Span span(tracer, "gtype.parse");
    gtype = gtdl::parse_gtype(source, diags);
    if (gtype == nullptr) {
      span.fail();
      return out;
    }
  }
  {
    Span span(tracer, "gtype.wf");
    const gtdl::WellformedResult wf = gtdl::check_wellformed(gtype);
    if (!wf.ok) {
      out.exit = 1;
      return out;
    }
  }
  gtdl::GTypePtr pushed;
  {
    Span span(tracer, "detect.new_push");
    pushed = gtdl::push_new_bindings(gtype);
  }
  {
    Span span(tracer, "detect.df");
    gtdl::DetectOptions detect;
    detect.require_wellformed = false;
    detect.new_pushing = false;
    detect.engine = &engine;
    const gtdl::DeadlockVerdict v = gtdl::check_deadlock_freedom(pushed, detect);
    if (v.verdict == gtdl::Verdict::kUnknown) span.fail();
    out.exit = v.verdict == gtdl::Verdict::kDeadlockFree ? 0
               : v.verdict == gtdl::Verdict::kMayDeadlock ? 1
                                                          : 3;
  }
  if (op.baseline) {
    Span span(tracer, "detect.gml");
    gtdl::GmlBaselineOptions gml;
    gml.unrolls_per_binding = 2;
    gml.engine = &engine;
    const gtdl::GmlBaselineReport report = gtdl::gml_baseline_check(gtype, gml);
    if (report.unknown) span.fail();
    out.gml = report.deadlock_reported ? 1 : 0;
    out.graphs = static_cast<long long>(report.graphs_checked);
    r.counts["detect.gml.peak_buffered"] =
        std::max(r.counts["detect.gml.peak_buffered"],
                 static_cast<double>(report.peak_buffered));
  }
  return out;
}

void run_corpus(const std::vector<std::vector<std::string>>& rows,
                Tracer& tracer, PassResult& r) {
  std::vector<CorpusOp> warmup;
  std::vector<CorpusOp> ops;
  for (const auto& row : rows) {
    // w|o path baseline exit gml [label]
    if (row.size() < 5 || row.size() > 6 || (row[0] != "w" && row[0] != "o")) {
      throw std::runtime_error("bad corpus manifest row");
    }
    CorpusOp op;
    op.path = row[1];
    op.baseline = row[2] == "1";
    op.want_exit = std::stoi(row[3]);
    op.want_gml = row[4] == "-" ? -1 : std::stoi(row[4]);
    (row[0] == "w" ? warmup : ops).push_back(op);
  }
  auto& interner = gtdl::GTypeInterner::instance();
  gtdl::Engine engine(1);
  PassResult warmup_result;  // warm-up counts stay out of the pass's counts
  const auto run_op = [&](const CorpusOp& op, std::uint32_t id, PassResult& into) {
    CorpusOutcome got;
    if (tracer.enabled()) {
      tracer.set_op(id);
      Span span(tracer, "op");
      got = corpus_traced(op, engine, tracer, into);
      gtdl::trim_scan_arena(gtdl::scan_arena_trim_quota());  // as analyze_file does
    } else {
      got = corpus_untraced(op, engine, into);
    }
    r.verdict(std::to_string(got.exit) + "/" + std::to_string(got.gml));
    into.counts["detect.gml.graphs"] += static_cast<double>(got.graphs);
    if (got.exit != op.want_exit || got.gml != op.want_gml) {
      r.fail(op.path + ": exit " + std::to_string(got.exit) + " gml " +
             std::to_string(got.gml) + ", want " + std::to_string(op.want_exit) +
             " gml " + std::to_string(op.want_gml));
    }
  };

  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    run_op(warmup[i], static_cast<std::uint32_t>(i), warmup_result);
  }
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.warmup_ops = warmup.size();
  tracer.clear();
  const double nodes_before = static_cast<double>(interner.stats().nodes);

  const std::uint64_t loop0 = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t s = now_ns();
    run_op(ops[i], static_cast<std::uint32_t>(warmup.size() + i), r);
    r.op_ms.push_back(static_cast<double>(now_ns() - s) / 1e6);
  }
  r.loop_s = static_cast<double>(now_ns() - loop0) / 1e9;
  r.ops = ops.size();
  r.items = static_cast<double>(ops.size());
  const double nodes_after = static_cast<double>(interner.stats().nodes);
  r.counts["gtype.intern.nodes"] = nodes_after;
  r.counts["gtype.intern.nodes_per_op"] =
      (nodes_after - nodes_before) / static_cast<double>(std::max<std::size_t>(1, ops.size()));
  r.text_digest = fnv1a(r.text_digest, hex(warmup_result.text_digest));
}

// ---------------------------------------------------------------------------
// daemon-edit: one in-process Service, one closed-loop client.

struct ProjectFile {
  std::string path;
  std::string variant[2];  // [0] deadlock-free, [1] planted deadlock
  int current = 0;
};

// Rewrites `path` in place. Both variants have the same length, so the
// file is never truncated: the rewrite is a page-cache copy and does not
// trigger the delayed-allocation flush that ext4 starts when a file is
// truncated and rewritten.
void overwrite(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path + " for writing");
  std::size_t done = 0;
  while (done < content.size()) {
    const ssize_t n = ::pwrite(fd, content.data() + done, content.size() - done,
                               static_cast<off_t>(done));
    if (n <= 0) {
      ::close(fd);
      throw std::runtime_error("short write to " + path);
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Checks a one-file submit/reanalyze response.
bool response_matches(const std::string& response, int want_exit, int want_cached) {
  if (response.rfind("{\"ok\":true", 0) != 0) return false;
  const std::size_t files = response.find("\"files\":[");
  if (files == std::string::npos) return false;
  return json_int(response, "exit_code", files) == want_exit &&
         json_int(response, "cached", files) == want_cached;
}

void run_daemon(const std::vector<std::vector<std::string>>& rows,
                Tracer& tracer, PassResult& r) {
  std::vector<ProjectFile> files;
  std::vector<std::pair<char, std::size_t>> requests;
  for (const auto& row : rows) {
    if (row[0] == "f" && row.size() == 5) {
      ProjectFile f;
      f.path = row[1];
      f.variant[0] = read_file(row[2]);
      f.variant[1] = read_file(row[3]);
      f.current = std::stoi(row[4]);
      if (f.variant[0].size() != f.variant[1].size()) {
        throw std::runtime_error("variants of " + f.path + " differ in length");
      }
      files.push_back(std::move(f));
    } else if (row[0] == "r" && row.size() == 3) {
      requests.emplace_back(row[1][0], std::stoul(row[2]));
    } else {
      throw std::runtime_error("bad daemon manifest row");
    }
  }
  // Each file starts as its initial variant; written before timing.
  for (const ProjectFile& f : files) overwrite(f.path, f.variant[f.current]);

  std::optional<gtdl::service::Service> service;
  const std::uint64_t t0 = now_ns();
  std::string cold = "{\"op\":\"submit\"";
  for (const ProjectFile& f : files) cold += ",\"file\":" + json_quote(f.path);
  cold += "}";
  std::string cold_response;
  {
    tracer.set_op(0);
    Span span(tracer, "service.setup");
    service.emplace(gtdl::service::ServiceOptions{});
    cold_response = service->handle_line(cold, nullptr);
  }
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.warmup_ops = 1;
  {
    std::size_t at = cold_response.find("\"files\":[");
    bool ok = cold_response.rfind("{\"ok\":true", 0) == 0 && at != std::string::npos;
    for (const ProjectFile& f : files) {
      if (!ok) break;
      at = cold_response.find("\"path\":", at);
      if (at == std::string::npos) break;
      const long long exit = json_int(cold_response, "exit_code", at);
      const long long cached = json_int(cold_response, "cached", at);
      r.verdict(std::to_string(exit) + "/" + std::to_string(cached));
      ok = exit == f.current && cached == 0;
      ++at;
    }
    r.text(cold_response);
    if (!ok || at == std::string::npos) r.fail("cold submit: unexpected response");
  }

  const auto stats = [&] {
    Span span(tracer, "service.stats");
    return service->handle_line("{\"op\":\"stats\"}", nullptr);
  };
  const std::string stats_before = stats();
  const double hits_before = static_cast<double>(json_int(stats_before, "cache_hits"));
  const double nodes_before = static_cast<double>(json_int(stats_before, "interned_nodes"));

  std::vector<double> edit_ms;
  const std::size_t checkpoint = 500;
  const std::uint64_t loop0 = now_ns();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto [kind, index] = requests[i];
    ProjectFile& f = files.at(index);
    const bool edit = kind == 'e';
    if (edit) {
      f.current ^= 1;
      overwrite(f.path, f.variant[f.current]);
    }
    const std::string line = std::string("{\"op\":\"") +
                             (edit ? "reanalyze" : "submit") +
                             "\",\"file\":" + json_quote(f.path) + "}";
    std::string response;
    const std::uint64_t s = now_ns();
    if (tracer.enabled()) {
      tracer.set_op(static_cast<std::uint32_t>(i + 1));
      Span op(tracer, "op");
      Span span(tracer, edit ? "service.edit" : "service.hit");
      response = service->handle_line(line, nullptr);
      if (response.rfind("{\"ok\":true", 0) != 0) span.fail();
    } else {
      response = service->handle_line(line, nullptr);
    }
    const double ms = static_cast<double>(now_ns() - s) / 1e6;
    r.op_ms.push_back(ms);
    if (edit) edit_ms.push_back(ms);
    const std::size_t at = response.find("\"files\":[");
    r.verdict(std::to_string(json_int(response, "exit_code", at)) + "/" +
              std::to_string(json_int(response, "cached", at)));
    r.text(response);
    if (!response_matches(response, f.current, edit ? 0 : 1)) {
      r.fail(f.path + (edit ? " edit" : " hit") + ": " + response.substr(0, 160));
    }
    if (tracer.enabled() && (i + 1) % checkpoint == 0) {
      r.extra["service.stats.nodes@" + std::to_string(i + 1)] =
          static_cast<double>(json_int(stats(), "interned_nodes"));
    }
  }
  r.loop_s = static_cast<double>(now_ns() - loop0) / 1e9;
  r.ops = requests.size();
  r.items = static_cast<double>(requests.size());

  const std::string final_stats = stats();
  const double hits = static_cast<double>(json_int(final_stats, "cache_hits"));
  r.counts["service.cache.hits"] = hits - hits_before;
  r.counts["service.cache.invalidated"] =
      static_cast<double>(json_int(final_stats, "cache_invalidated"));
  r.counts["service.cache.evictions"] =
      static_cast<double>(json_int(final_stats, "cache_evictions"));
  r.counts["service.cache.bytes"] =
      static_cast<double>(json_int(final_stats, "cache_bytes"));
  r.counts["service.cache.hit_ratio"] =
      (hits - hits_before) / static_cast<double>(std::max<std::size_t>(1, requests.size()));
  const double nodes_after = static_cast<double>(json_int(final_stats, "interned_nodes"));
  r.counts["gtype.intern.nodes"] = nodes_after;
  r.counts["gtype.intern.nodes_per_op"] =
      (nodes_after - nodes_before) / static_cast<double>(std::max<std::size_t>(1, requests.size()));
  // Process age: median edit latency of the last tenth over the first.
  const std::size_t tenth = edit_ms.size() / 10;
  if (tenth > 0) {
    const std::vector<double> early(edit_ms.begin(), edit_ms.begin() + static_cast<long>(tenth));
    const std::vector<double> late(edit_ms.end() - static_cast<long>(tenth), edit_ms.end());
    r.extra["service.edit.late_over_early"] = percentile(late, 0.5) / percentile(early, 0.5);
  }
}

// ---------------------------------------------------------------------------
// ingest: one observed verdict per TRACE_FORMAT v1 dump set.

struct IngestOp {
  std::string pattern;
  int want_exit = 0;
  long long want_records = 0;
};

struct IngestOutcome {
  int exit = 2;
  long long records = -1;
  int tj = -1;
  int kj = -1;
};

IngestOutcome ingest_untraced(const IngestOp& op, PassResult& r) {
  const gtdl::ingest::IngestReport report = gtdl::ingest::ingest_dump_set(op.pattern);
  IngestOutcome out;
  out.exit = report.exit_code;
  out.records = number_before(report.text, " records");
  out.tj = report.text.find("transitive joins (observed): valid") != std::string::npos;
  out.kj = report.text.find("known joins (observed): valid") != std::string::npos;
  r.counts["ingest.records"] += static_cast<double>(out.records);
  r.counts["ingest.shards"] += static_cast<double>(number_before(report.text, " shards"));
  r.counts["graph.vertices"] += static_cast<double>(number_before(report.text, " vertices"));
  r.counts["graph.edges"] += static_cast<double>(number_before(report.text, " edges"));
  r.text(report.text);
  return out;
}

IngestOutcome ingest_traced(const IngestOp& op, Tracer& tracer, PassResult& r) {
  IngestOutcome out;
  std::vector<std::string> files;
  {
    Span span(tracer, "ingest.glob");
    std::string error;
    files = gtdl::ingest::expand_dump_glob(op.pattern, &error);
    if (files.empty()) {
      span.fail();
      return out;
    }
  }
  gtdl::ingest::MergedTrace merged;
  {
    Span span(tracer, "ingest.merge");
    merged = gtdl::ingest::merge_trace_dumps(files);
    if (!merged.ok) {
      span.fail();
      return out;
    }
  }
  out.records = static_cast<long long>(merged.records);
  r.counts["ingest.records"] += static_cast<double>(merged.records);
  r.counts["ingest.shards"] += static_cast<double>(merged.shards);
  gtdl::GraphArena arena;
  bool deadlock = false;
  {
    std::optional<gtdl::CsrGraph> csr;
    {
      Span span(tracer, "graph.lower");
      csr.emplace(gtdl::lower_to_csr(*merged.graph, arena));
    }
    r.counts["graph.vertices"] += csr->vertex_count();
    r.counts["graph.edges"] += csr->edge_count();
    Span span(tracer, "graph.scan");
    deadlock = csr->find_cycle().has_value() || !csr->unspawned_touches().empty();
  }
  gtdl::Trace trace;
  {
    Span span(tracer, "tj.trace");
    trace = gtdl::trace_with_init(*merged.graph, merged.root);
  }
  r.counts["tj.actions"] += static_cast<double>(trace.size());
  {
    Span span(tracer, "tj.tj");
    out.tj = gtdl::check_transitive_joins(trace).valid;
  }
  {
    Span span(tracer, "tj.kj");
    out.kj = gtdl::check_known_joins(trace).valid;
  }
  out.exit = deadlock ? 1 : 0;
  return out;
}

void run_ingest(const std::vector<std::vector<std::string>>& rows,
                Tracer& tracer, PassResult& r) {
  std::vector<IngestOp> warmup;
  std::vector<IngestOp> ops;
  for (const auto& row : rows) {
    // w|o pattern exit records [label]
    if (row.size() < 4 || row.size() > 5 || (row[0] != "w" && row[0] != "o")) {
      throw std::runtime_error("bad ingest manifest row");
    }
    IngestOp op;
    op.pattern = row[1];
    op.want_exit = std::stoi(row[2]);
    op.want_records = std::stoll(row[3]);
    (row[0] == "w" ? warmup : ops).push_back(op);
  }
  PassResult warmup_result;  // warm-up counts stay out of the pass's counts
  const auto run_op = [&](const IngestOp& op, std::uint32_t id, PassResult& into) {
    IngestOutcome got;
    if (tracer.enabled()) {
      tracer.set_op(id);
      Span span(tracer, "op");
      got = ingest_traced(op, tracer, into);
    } else {
      got = ingest_untraced(op, into);
    }
    r.verdict(std::to_string(got.exit) + "/" + std::to_string(got.tj) + "/" +
              std::to_string(got.kj));
    if (got.exit != op.want_exit || got.records != op.want_records) {
      r.fail(op.pattern + ": exit " + std::to_string(got.exit) + " records " +
             std::to_string(got.records) + ", want " + std::to_string(op.want_exit) +
             " records " + std::to_string(op.want_records));
    }
    return got;
  };
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    run_op(warmup[i], static_cast<std::uint32_t>(i), warmup_result);
  }
  r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.warmup_ops = warmup.size();
  tracer.clear();
  const std::uint64_t loop0 = now_ns();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t s = now_ns();
    const IngestOutcome got =
        run_op(ops[i], static_cast<std::uint32_t>(warmup.size() + i), r);
    r.op_ms.push_back(static_cast<double>(now_ns() - s) / 1e6);
    r.items += static_cast<double>(std::max(0LL, got.records));
  }
  r.loop_s = static_cast<double>(now_ns() - loop0) / 1e9;
  r.ops = ops.size();
  r.text_digest = fnv1a(r.text_digest, hex(warmup_result.text_digest));
}

// ---------------------------------------------------------------------------
// Output.

void write_result(const std::string& path, const PassResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"traced\": %d", r.workload.c_str(),
               r.traced ? 1 : 0);
  std::fprintf(f, ", \"warmup_ops\": %zu, \"ops\": %zu, \"failed\": %zu",
               r.warmup_ops, r.ops, r.failed);
  std::fputs(", \"failures\": [", f);
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::string s;
    for (char c : r.failures[i]) {
      if (c == '"' || c == '\\') s += '\\';
      s += (c == '\n' ? ' ' : c);
    }
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", s.c_str());
  }
  std::fputs("]", f);
  double op_total = 0;
  for (double ms : r.op_ms) op_total += ms;
  std::fprintf(f,
               ", \"setup_s\": %.9g, \"loop_s\": %.9g, \"op_ms_total\": %.9g"
               ", \"items\": %.17g, \"items_per_s\": %.9g, \"op_ms_p50\": %.9g"
               ", \"op_ms_p99\": %.9g, \"peak_rss_mb\": %.9g",
               r.setup_s, r.loop_s, op_total, r.items,
               r.loop_s > 0 ? r.items / r.loop_s : 0.0,
               percentile(r.op_ms, 0.50), percentile(r.op_ms, 0.99), peak_rss_mb());
  std::fprintf(f, ", \"verdict_digest\": \"%s\", \"text_digest\": \"%s\"",
               hex(r.verdict_digest).c_str(), hex(r.text_digest).c_str());
  const auto write_map = [f](const char* name, const std::map<std::string, double>& m) {
    std::fprintf(f, ", \"%s\": {", name);
    bool first = true;
    for (const auto& [k, v] : m) {
      std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
      first = false;
    }
    std::fputs("}", f);
  };
  write_map("counts", r.counts);
  write_map("extra", r.extra);
  std::fputs(", \"layers\": {", f);
  bool first = true;
  for (const auto& [name, t] : r.layers) {
    std::fprintf(f, "%s\"%s\": {\"self_ms\": %.9g, \"calls\": %llu, \"failures\": %llu}",
                 first ? "" : ", ", name.c_str(), t.self_ms,
                 static_cast<unsigned long long>(t.calls),
                 static_cast<unsigned long long>(t.failures));
    first = false;
  }
  std::fprintf(f, "}, \"traced_op_ms\": %.9g,", r.traced_op_ms);
  gtdl::bench::write_json_env(f);
  std::fputs("}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4 && !(argc == 6 && std::strcmp(argv[4], "--trace") == 0)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver <corpus|daemon-edit|ingest> "
                 "<manifest> <out.json> [--trace <spans.json>]\n");
    return 2;
  }
  try {
    PassResult r;
    r.workload = argv[1];
    r.traced = argc == 6;
    Tracer tracer(r.traced);
    const auto rows = read_manifest(argv[2]);
    if (r.workload == "corpus") {
      run_corpus(rows, tracer, r);
    } else if (r.workload == "daemon-edit") {
      run_daemon(rows, tracer, r);
    } else if (r.workload == "ingest") {
      run_ingest(rows, tracer, r);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", argv[1]);
      return 2;
    }
    if (r.traced) {
      r.layers = tracer.totals();
      r.traced_op_ms = tracer.op_ms();
      if (!tracer.write_chrome_trace(argv[5])) {
        throw std::runtime_error(std::string("cannot write ") + argv[5]);
      }
    }
    write_result(argv[3], r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
