// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench prints (a) the regenerated rows/series and (b) where the
// paper states a number, a paper-vs-measured comparison line, so the output
// can be pasted into EXPERIMENTS.md directly.
//
// Calling init() at the top of main additionally records every comparison,
// series and scalar into a machine-readable result file of a schema common
// to all benches ("gemmtune-bench-v1"), written at process exit:
//   { "schema": "gemmtune-bench-v1", "bench": <name>,
//     "comparisons": [{section, label, paper, measured, ratio}],
//     "series":      [{section, name, points: [[N, gflops], ...]}],
//     "scalars":     { name: number },
//     "metrics":     <trace metrics document> }
// tools/bench_smoke.sh diffs these files against bench/baselines/ in CI.
//
// Flags parsed (and stripped) by init(): --json FILE (result path; default
// <bench>.json), --trace FILE and --metrics FILE (enable the trace layer
// and write its timeline / aggregate documents too).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/report_version.hpp"
#include "common/runmeta.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/interp.hpp"
#include "trace/trace.hpp"

namespace gemmtune::bench {

struct ReportState {
  bool initialized = false;
  std::string name;
  std::string section;
  std::string json_path, trace_path, metrics_path;
  Json comparisons = Json::array();
  Json series_doc = Json::array();
  Json scalars = Json::object();
};

inline ReportState& report() {
  static ReportState s;
  return s;
}

inline void write_report() {
  ReportState& r = report();
  if (!r.initialized) return;
  Json doc = Json::object();
  doc["schema"] = kBenchReportSchema;
  doc["bench"] = r.name;
  // The uniform run-identity block `gemmtune bench-db ingest` keys on:
  // every bench emits it, so no ingest ever has to guess the backend or
  // thread count of a result.
  doc["meta"] = run_meta_json(
      ir::to_string(ir::resolve_backend(ir::Backend::Auto)),
      configured_threads());
  doc["comparisons"] = r.comparisons;
  doc["series"] = r.series_doc;
  doc["scalars"] = r.scalars;
  doc["metrics"] = trace::metrics_json();
  std::ofstream f(r.json_path);
  if (!f.good()) {
    std::fprintf(stderr, "bench: cannot write %s\n", r.json_path.c_str());
    return;
  }
  f << doc.dump(2) << "\n";
  std::printf("\n[wrote %s]\n", r.json_path.c_str());
  if (!r.trace_path.empty()) trace::write_trace_file(r.trace_path);
  if (!r.metrics_path.empty()) trace::write_metrics_file(r.metrics_path);
}

/// Enables result recording for this bench. Parses and strips --json,
/// --trace and --metrics from argv, so a bench parses only its own
/// arguments from what is left. Safe to call with null argv.
inline void init(const std::string& name, int* argc = nullptr,
                 char** argv = nullptr) {
  ReportState& r = report();
  r.initialized = true;
  r.name = name;
  r.json_path = name + ".json";
  if (argc && argv) {
    int w = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string a = argv[i];
      auto value = [&](const char* flag) -> const char* {
        const std::string eq = std::string(flag) + "=";
        if (a.rfind(eq, 0) == 0) return argv[i] + eq.size();
        if (a == flag && i + 1 < *argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = value("--json")) {
        r.json_path = v;
      } else if (const char* v = value("--trace")) {
        r.trace_path = v;
      } else if (const char* v = value("--metrics")) {
        r.metrics_path = v;
      } else {
        argv[w++] = argv[i];
      }
    }
    *argc = w;
  }
  trace::set_enabled(true);  // benches always collect their own metrics
  std::atexit(write_report);
}

/// For a bench that takes no arguments besides init()'s: when argv holds
/// one more, prints it and disables the result file, so a refused run
/// writes no report. Returns whether it refused; call after init().
inline bool reject_unknown_arguments(int argc, char** argv) {
  if (argc <= 1) return false;
  std::fprintf(stderr, "%s: unrecognized argument '%s'\n", argv[0], argv[1]);
  report().initialized = false;
  return true;
}

inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  report().section = title;
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

/// Records a standalone named value into the result file. Non-finite
/// values are stored as 0: the JSON writer prints doubles verbatim, so an
/// inf/nan (zero-duration division on a tiny problem) would corrupt the
/// document.
inline void scalar(const std::string& name, double value) {
  ReportState& r = report();
  if (r.initialized) r.scalars[name] = finite_or(value, 0.0);
}

/// Prints "label: paper=X measured=Y (ratio R)".
inline void compare(const std::string& label, double paper,
                    double measured) {
  const double ratio = finite_or(measured / paper, 0.0);
  std::printf("  %-44s paper=%8s  measured=%8s  ratio=%.2f\n", label.c_str(),
              fmt_gflops(paper).c_str(), fmt_gflops(measured).c_str(),
              ratio);
  ReportState& r = report();
  if (r.initialized) {
    Json j = Json::object();
    j["section"] = r.section;
    j["label"] = label;
    j["paper"] = finite_or(paper, 0.0);
    j["measured"] = finite_or(measured, 0.0);
    j["ratio"] = ratio;
    r.comparisons.push_back(std::move(j));
  }
}

/// One named series over problem sizes (a figure line).
struct Series {
  std::string name;
  std::vector<std::pair<std::int64_t, double>> points;  // (N, GFlop/s)
};

/// Prints several series as one aligned table over the union of sizes.
/// With init() active, each series is also recorded into the result file.
inline void print_series(const std::vector<Series>& series) {
  ReportState& r = report();
  if (r.initialized) {
    for (const auto& s : series) {
      Json j = Json::object();
      j["section"] = r.section;
      j["name"] = s.name;
      Json pts = Json::array();
      for (const auto& [n, g] : s.points) {
        Json p = Json::array();
        p.push_back(static_cast<std::int64_t>(n));
        p.push_back(g);
        pts.push_back(std::move(p));
      }
      j["points"] = std::move(pts);
      r.series_doc.push_back(std::move(j));
    }
  }
  std::vector<std::int64_t> sizes;
  for (const auto& s : series)
    for (const auto& [n, g] : s.points) {
      if (std::find(sizes.begin(), sizes.end(), n) == sizes.end())
        sizes.push_back(n);
    }
  std::sort(sizes.begin(), sizes.end());
  TextTable t;
  std::vector<std::string> header = {"N"};
  for (const auto& s : series) header.push_back(s.name);
  t.set_header(header);
  for (std::int64_t n : sizes) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const auto& s : series) {
      double val = -1;
      for (const auto& [pn, g] : s.points) {
        if (pn == n) val = g;
      }
      row.push_back(val < 0 ? "-" : fmt_gflops(val));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
}

}  // namespace gemmtune::bench
