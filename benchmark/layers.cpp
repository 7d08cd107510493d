// pals_layers — the benchmark's in-process helper, linked against the pals
// libraries. It never changes what the program computes; it only calls the
// public functions of each layer and times them from the outside.
//
//   pals_layers facts SPEC...
//       Generate each workload (registry name such as CG-32, or an inline
//       spec family:ranks:lb:iterations) with the program's generators and
//       print one JSON line per workload: rank count, trace events and the
//       per-rank sums of the compute bursts in trace order. The benchmark's
//       independent model (model.py) derives eq. (4), the MAX gears and the
//       energies from these sums.
//
//   pals_layers trace PLAN.json SPANS.jsonl
//       The traced run. Records one span per public call (name, id, parent,
//       operation id, start, end) in memory and writes them, plus the
//       counters read at the same boundaries, when the plan is done.
//       run.py turns the spans into the per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/experiments.hpp"
#include "analysis/figures.hpp"
#include "analysis/sweep.hpp"
#include "core/controllers.hpp"
#include "core/pipeline.hpp"
#include "lint/lint.hpp"
#include "obs/metrics.hpp"
#include "power/gearset.hpp"
#include "power/power_model.hpp"
#include "replay/replay.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/query.hpp"
#include "trace/transform.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// In-memory span recorder. Spans nest through a stack; every span
/// carries the id of the operation (cell, query, workload) it belongs to.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  std::unique_ptr<Scope> open(const std::string& name, const std::string& op) {
    Span span;
    span.name = name;
    span.op = op;
    span.id = static_cast<std::int64_t>(spans_.size());
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = now();
    spans_.push_back(span);
    stack_.push_back(span.id);
    return std::make_unique<Scope>(*this, spans_.size() - 1);
  }

  template <typename F>
  decltype(auto) time(const std::string& name, const std::string& op,
                      F&& body) {
    const auto scope = open(name, op);
    return body();
  }

  void count(const std::string& name, double value) {
    counters_[name] += value;
  }
  void set(const std::string& name, double value) { counters_[name] = value; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(17);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << pals::json_escape(s.name) << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"op\":\""
          << pals::json_escape(s.op) << "\",\"start\":" << s.start
          << ",\"end\":" << s.end << "}\n";
    }
    out << "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      out << (first ? "" : ",") << '"' << pals::json_escape(name)
          << "\":" << value;
      first = false;
    }
    out << "}}\n";
    PALS_CHECK_MSG(out.good(), "cannot write spans to " << path);
  }

 private:
  struct Span {
    std::string name;
    std::string op;
    std::int64_t id = 0;
    std::int64_t parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  void close(std::size_t index) {
    spans_[index].end = now();
    stack_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
  std::map<std::string, double> counters_;
};

std::uint64_t replay_runs() {
  return pals::obs::default_registry().counter("replay.runs").value();
}

std::string string_member(const pals::JsonValue& v, const char* key) {
  const pals::JsonValue* m = v.find(key);
  PALS_CHECK_MSG(m != nullptr && m->is_string(),
                 "plan: missing string '" << key << "'");
  return m->string;
}

double number_member(const pals::JsonValue& v, const char* key) {
  const pals::JsonValue* m = v.find(key);
  PALS_CHECK_MSG(m != nullptr && m->is_number(),
                 "plan: missing number '" << key << "'");
  return m->number;
}

std::vector<std::string> strings(const pals::JsonValue& plan, const char* key) {
  std::vector<std::string> out;
  if (const pals::JsonValue* list = plan.find(key))
    for (const pals::JsonValue& item : list->array) out.push_back(item.string);
  return out;
}

int facts(int argc, char** argv) {
  std::cout.precision(17);
  for (int i = 2; i < argc; ++i) {
    const std::string spec = argv[i];
    const pals::Trace trace = pals::resolve_workload(spec, 10).build();
    std::cout << "{\"workload\":\"" << pals::json_escape(spec)
              << "\",\"ranks\":" << trace.n_ranks()
              << ",\"events\":" << trace.total_events() << ",\"compute\":[";
    for (pals::Rank r = 0; r < trace.n_ranks(); ++r) {
      double sum = 0.0;
      for (const pals::Event& e : trace.events(r))
        if (const auto* c = std::get_if<pals::ComputeEvent>(&e))
          sum += c->duration;
      std::cout << (r == 0 ? "" : ",") << sum;
    }
    std::cout << "]}\n";
  }
  return 0;
}

/// Traces and baselines of the plan's workloads, built through the
/// workload, trace, lint and replay layers one call at a time.
struct Prepared {
  pals::Trace trace;
  pals::ReplayResult baseline;
};

std::map<std::string, Prepared> prepare(Tracer& tracer,
                                        const std::vector<std::string>& specs,
                                        int iterations) {
  std::map<std::string, Prepared> out;
  for (const std::string& spec : specs) {
    Prepared p;
    p.trace = tracer.time("workloads.build", spec, [&] {
      return pals::resolve_workload(spec, iterations).build();
    });
    tracer.count("workloads.events",
                 static_cast<double>(p.trace.total_events()));
    tracer.time("trace.validate", spec, [&] { p.trace.validate(); return 0; });
    const pals::lint::LintReport report = tracer.time(
        "lint.trace", spec, [&] { return pals::lint::lint_trace(p.trace); });
    PALS_CHECK_MSG(!report.has_errors(), "lint errors in " << spec);
    p.baseline = tracer.time("replay.baseline", spec, [&] {
      return pals::replay(p.trace, pals::ReplayConfig{});
    });
    tracer.count("replay.events",
                 static_cast<double>(p.baseline.simulated_events));
    out.emplace(spec, std::move(p));
  }
  return out;
}

pals::PipelineConfig cell_config(const pals::JsonValue& cell) {
  pals::PipelineConfig config = pals::default_pipeline_config(
      pals::gear_set_by_name(string_member(cell, "gear_set")),
      pals::algorithm_by_name(string_member(cell, "algorithm")));
  config.controller.kind =
      pals::controller_by_name(string_member(cell, "controller"));
  pals::set_beta(config, number_member(cell, "beta"));
  return config;
}

constexpr int kRepetitions = 2;

/// Seconds covered by the spans the program itself recorded since the
/// span log held `seen` entries.
double program_span_seconds(std::size_t seen) {
  const std::vector<pals::obs::SpanRecord> spans =
      pals::obs::default_registry().spans();
  double seconds = 0.0;
  for (std::size_t i = seen; i < spans.size(); ++i)
    seconds += static_cast<double>(spans[i].end_ns - spans[i].begin_ns) * 1e-9;
  return seconds;
}

/// One cell through run_pipeline, then the same cell again one layer at a
/// time (assign, rescale, scaled replay, energy), then the bounds oracle.
/// The cell runs kRepetitions times; run.py keeps the fastest run of each
/// span (their op ids end in "/r<k>"), and the scaled replay's events are
/// counted on the first run only. A static cell runs with
/// PipelineConfig::observe, so the program's own phase spans give
/// run_pipeline's self time from the same call; the return value is that
/// self time (0 for a controller cell).
double profile_cell(Tracer& tracer, const std::string& op, bool first_run,
                    const Prepared& p, const pals::PipelineConfig& config) {
  const bool is_static =
      config.controller.kind == pals::ControllerKind::kStatic;
  pals::PipelineConfig observed = config;
  observed.observe = is_static;
  const std::size_t seen = pals::obs::default_registry().spans().size();
  const auto start = Clock::now();
  const pals::PipelineResult whole =
      tracer.time(is_static ? "core.pipeline" : "core.controller", op, [&] {
        return pals::run_pipeline(p.trace, observed, p.baseline);
      });
  double self_s = 0.0;
  if (is_static) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    self_s = seconds - program_span_seconds(seen);
    const pals::FrequencyAssignment assignment =
        tracer.time("core.assign", op, [&] {
          return pals::assign_frequencies(p.baseline.compute_time,
                                          config.algorithm);
        });
    const pals::PowerModel power(config.power);
    std::vector<double> factors;
    for (const pals::Gear& g : assignment.gears)
      factors.push_back(power.time_scale(g.frequency_ghz));
    const pals::Trace scaled = tracer.time("trace.rescale", op, [&] {
      return pals::scale_compute(p.trace, factors);
    });
    const pals::ReplayResult replayed = tracer.time("replay.scaled", op, [&] {
      return pals::replay(scaled, config.replay);
    });
    if (first_run)
      tracer.count("replay.events",
                   static_cast<double>(replayed.simulated_events));
    const double energy = tracer.time("power.energy", op, [&] {
      return power.total_energy(replayed.timeline, assignment.gears) /
             power.baseline_energy(p.baseline.timeline);
    });
    PALS_CHECK_MSG(energy == whole.normalized_energy(),
                   "layer-by-layer energy of " << op
                                               << " differs from run_pipeline");
  }
  tracer.time("analysis.bounds", op, [&] {
    return pals::bounds::analyze(p.trace, config, &p.baseline);
  });
  return self_s;
}

/// The serve layers in process: parse, execute against a warm cache,
/// render — one operation id per query.
void serve_slice(Tracer& tracer, const std::vector<std::string>& lines) {
  pals::serve::WarmCache cache(256u << 20);
  pals::serve::QueryEngine engine(pals::serve::QueryEngineOptions{}, cache);
  const std::uint64_t runs_before = replay_runs();
  std::vector<pals::ExperimentRow> rows;
  for (const std::string& line : lines) {
    const std::string op = "query-" + std::to_string(rows.size());
    const pals::serve::Request request = tracer.time(
        "serve.parse", op, [&] { return pals::serve::parse_request(line); });
    const auto start = Clock::now();
    const pals::ExperimentRow row = tracer.time(
        "serve.execute", op, [&] { return engine.execute(request, 0.0); });
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    tracer.time("serve.render", op, [&] {
      return pals::serve::render_query_ok(request.id, row, elapsed_ms);
    });
    rows.push_back(row);
  }
  tracer.time("analysis.render", "served",
              [&] { return pals::rows_to_csv(rows).size(); });
  const pals::serve::WarmCacheStats stats = cache.stats();
  tracer.set("serve.cache_hits", static_cast<double>(stats.hits));
  tracer.set("serve.cache_misses", static_cast<double>(stats.misses));
  tracer.set("serve.replays", static_cast<double>(replay_runs() - runs_before));
  tracer.set("serve.queries", static_cast<double>(lines.size()));
}

/// The paper's report as pals_reproduce runs it, one figure call per span
/// and no other work: the traces are built inside table3_rows, as there.
void report_job(Tracer& tracer) {
  pals::TraceCache cache;
  using Figure = std::vector<pals::ExperimentRow> (*)(pals::TraceCache&);
  const std::pair<const char*, Figure> serial[] = {
      {"figure3", pals::figure3_rows}, {"figure4", pals::figure4_rows},
      {"figure5", pals::figure5_rows}, {"figure6", pals::figure6_rows},
      {"figure7", pals::figure7_rows}, {"figure8", pals::figure8_rows},
      {"figure9", pals::figure9_rows}};
  std::vector<std::vector<pals::ExperimentRow>> sections;
  sections.push_back(tracer.time("analysis.table3", "table3", [&] {
    return pals::table3_rows(cache, 10);
  }));
  sections.push_back(tracer.time("analysis.sweep", "figure2", [&] {
    return pals::figure2_rows(cache);
  }));
  const std::uint64_t before = replay_runs();
  double serial_rows = 0.0;
  for (const auto& [name, figure] : serial) {
    sections.push_back(
        tracer.time("analysis.figure", name, [&] { return figure(cache); }));
    serial_rows += static_cast<double>(sections.back().size());
  }
  tracer.set("analysis.figure_replays",
             static_cast<double>(replay_runs() - before));
  tracer.set("analysis.figure_rows", serial_rows);
  sections.push_back(tracer.time("analysis.sweep", "figure10", [&] {
    return pals::figure10_rows(cache);
  }));
  tracer.time("analysis.render", "report", [&] {
    std::size_t bytes = 0;
    for (const auto& rows : sections)
      bytes += pals::rows_to_markdown(rows).size();
    return bytes;
  });
}

/// The dense grid through run_sweep, exactly as pals_sweep --lint runs it.
void sweep_job(Tracer& tracer, const std::string& grid_path, int jobs) {
  const pals::SweepGrid grid = pals::SweepGrid::from_file(grid_path);
  pals::SweepOptions options;
  options.jobs = jobs;
  options.base.lint = true;
  const std::uint64_t before = replay_runs();
  const pals::SweepResult result = tracer.time("analysis.sweep", "grid", [&] {
    return pals::run_sweep(grid, options);
  });
  tracer.set("analysis.sweep_replays",
             static_cast<double>(replay_runs() - before));
  tracer.set("analysis.sweep_rows", static_cast<double>(result.rows.size()));
  tracer.time("analysis.render", "grid", [&] {
    return pals::rows_to_csv(result.rows).size();
  });
}

int trace(const std::string& plan_path, const std::string& out_path) {
  const pals::JsonValue plan = pals::json_parse_file(plan_path);
  const std::string workload = string_member(plan, "workload");
  const int iterations = static_cast<int>(number_member(plan, "iterations"));
  Tracer tracer;
  const auto slice_rss = [&](const std::string& slice) {
    tracer.set("host.peak_rss_mb." + slice, peak_rss_mb());
  };
  {
    const auto job = tracer.open("job", workload);
    if (workload == "paper_report") {
      report_job(tracer);
    } else if (workload == "sweep_grid") {
      sweep_job(tracer, string_member(plan, "grid"),
                static_cast<int>(number_member(plan, "jobs")));
    } else {
      serve_slice(tracer, strings(plan, "queries"));
    }
  }
  slice_rss("job");

  const std::map<std::string, Prepared> prepared =
      prepare(tracer, strings(plan, "instances"), iterations);
  slice_rss("prepare");
  int index = 0;
  for (const pals::JsonValue& cell : plan.find("cells")->array) {
    const std::string spec = string_member(cell, "workload");
    const auto it = prepared.find(spec);
    PALS_CHECK_MSG(it != prepared.end(),
                   "plan: cell workload " << spec << " not prepared");
    // Fastest of the repetitions, the same rule run.py applies to spans.
    double self_s = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      const double s = profile_cell(
          tracer, "cell-" + std::to_string(index) + "/r" + std::to_string(rep),
          rep == 0, it->second, cell_config(cell));
      self_s = rep == 0 ? s : std::min(self_s, s);
    }
    tracer.count("core.pipeline_self_s", self_s);
    ++index;
  }
  slice_rss("cells");
  if (workload != "serve_whatif") {
    serve_slice(tracer, strings(plan, "queries"));
    slice_rss("serve");
  }
  for (const pals::JsonValue& rung : plan.find("ladder")->array) {
    const int ranks = static_cast<int>(rung.number);
    const std::string spec = "cg:" + std::to_string(ranks) + ":0.9:10";
    const pals::Trace t = pals::resolve_workload(spec, 10).build();
    const pals::ReplayResult r = tracer.time(
        "ladder.r" + std::to_string(ranks), spec,
        [&] { return pals::replay(t, pals::ReplayConfig{}); });
    tracer.set("ladder.events.r" + std::to_string(ranks),
               static_cast<double>(r.simulated_events));
  }
  slice_rss("ladder");
  tracer.set("host.peak_rss_mb", peak_rss_mb());
  tracer.write(out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "facts") return facts(argc, argv);
    if (mode == "trace" && argc == 4) return trace(argv[2], argv[3]);
    std::cerr << "usage: pals_layers facts SPEC...\n"
                 "       pals_layers trace PLAN.json SPANS.jsonl\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pals_layers: " << e.what() << '\n';
    return 1;
  }
}
