// Reproducible engine-performance harness (BENCH_engine.json).
//
// Times the flow engine on (workload x matrix-point) cells at a given
// machine size, in two modes over identical deterministic routing
// (adaptive routing off so both modes execute the same paths):
//
//   optimized: FlowEngine — incremental component re-solve, route and
//              solve caches, lazy dispatch
//   baseline:  the ReferenceEngine (src/verify/reference_engine.hpp) —
//              re-route every activation, re-solve every active flow and
//              sweep every flow at every event, sharing none of the above
//
// and two regimes per mode:
//
//   cold:   the first run() of a freshly built engine — what a one-shot
//           simulation pays, as the paper drivers do with a fresh engine
//           per cell. Building the engine is not timed.
//   steady: every further run of the program on that engine — what a
//           caller replaying one program pays (perfbench's warm-replay),
//           since the route and solve caches survive run() calls.
//
// Timing is perfbench/driver.cpp's: process CPU time, which other tenants
// of a shared host disturb far less than wall time. Each mode and regime
// takes kSamples samples; a sample repeats runs until it has used
// kMinSampleSeconds of CPU and records CPU seconds per run. The JSON holds
// the median and IQR of the samples, and speedups are ratios of medians.
// The last cold engine carries on as the steady one, so no two engines of
// a cell are alive at once and peak_rss_bytes measures one.
//
// Every run is checked against the cell's first run (the baseline's, when
// it runs) on the full physical metric set. The binary exits 1 on any
// mismatch or unmet gate, and 2 when --out cannot be written or no
// --points entry builds at --nodes. scripts/run_bench.sh holds the
// canonical invocations; perfbench --trace 1 times the engine's phases.
//
// Schema nestflow-bench-engine-v7 (EXPERIMENTS.md): a provenance header,
// then per cell its point and workload, a baseline block (absent under
// --optimized-only) and an optimized block — cold_cpu_seconds and
// steady_cpu_seconds as {median, iqr}, dispatch_us_per_event (median over
// the steady runs) and the first steady run's counters and makespan — then
// speedup, cold_speedup, peak_rss_bytes (VmHWM at the end of the cell),
// bytes_per_endpoint and identical.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

// perfbench/driver.cpp's sampling rule.
constexpr int kSamples = 5;
constexpr double kMinSampleSeconds = 0.2;
// The only values any caller passed, and perfbench's warm-replay settings.
// 512 MiB of solve cache keeps a steady run's memoized solves resident; only
// the whole-set solves of arrival events are memoized, so the N = 1024
// mapreduce cell stores about 22 MB (2.7M words, almost all of it the
// shuffle's one entry: its key, its rates and the round log saved with it).
// Each entry allocates its arrays at their final size, so that is also what
// the cache allocates for them.
constexpr double kHopLatencySeconds = 1e-6;
constexpr std::size_t kSolveCacheWords = (std::size_t{512} << 20) / 8;

/// Median and interquartile range of one regime's samples.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

struct ModeStats {
  Spread cold;    // CPU seconds per run
  Spread steady;  // CPU seconds per run
  double dispatch_us_per_event = 0.0;  // median over the steady runs
  /// The first steady run's: its engine has made exactly one (cold) run
  /// before it, so its counters repeat exactly, however many runs the
  /// sampling takes.
  SimResult result;
  std::uint32_t mismatches = 0;  // runs that differ from the cell's first
};

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// kSamples samples of `one_run` (which returns the CPU seconds of one
/// run), each repeating it until the sample has used kMinSampleSeconds.
template <typename Run>
Spread sample(Run&& one_run) {
  std::vector<double> samples;
  for (int s = 0; s < kSamples; ++s) {
    double cpu = 0.0;
    int runs = 0;
    do {
      cpu += one_run();
      ++runs;
    } while (cpu < kMinSampleSeconds);
    samples.push_back(cpu / runs);
  }
  return {percentile(samples, 0.5),
          percentile(samples, 0.75) - percentile(samples, 0.25)};
}

/// Times one engine (FlowEngine or the ReferenceEngine baseline) on a cell,
/// cold and then steady, checking every run against `first`: the cell's
/// first run, which the first run of this call sets when it is empty.
template <typename Engine>
ModeStats run_mode(const Topology& topology, const TrafficProgram& program,
                   std::optional<SimResult>& first) {
  EngineOptions options;
  options.adaptive_routing = false;  // identical deterministic paths
  options.time_solver = true;        // dispatch_seconds
  options.hop_latency_seconds = kHopLatencySeconds;
  options.solve_cache_budget_words = kSolveCacheWords;

  ModeStats stats;
  std::optional<Engine> engine;
  SimResult last;
  const auto timed_run = [&] {
    const double cpu0 = process_cpu_seconds();
    last = engine->run(program);
    const double cpu = process_cpu_seconds() - cpu0;
    // Physical fields only: a cold run misses the caches a steady run
    // hits, so the counters legitimately differ between the regimes.
    if (!first) first = last;
    stats.mismatches += verify::physical_difference(*first, last).has_value();
    return cpu;
  };
  // emplace destroys the previous engine before it builds the next.
  stats.cold = sample([&] {
    engine.emplace(topology, options);
    return timed_run();
  });
  std::vector<double> dispatch_us;
  stats.steady = sample([&] {
    const double cpu = timed_run();
    if (dispatch_us.empty()) stats.result = last;  // the first steady run
    dispatch_us.push_back(
        last.events > 0
            ? 1e6 * last.dispatch_seconds / static_cast<double>(last.events)
            : 0.0);
    return cpu;
  });
  stats.dispatch_us_per_event = percentile(dispatch_us, 0.5);
  return stats;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double rate(std::uint64_t hits, std::uint64_t misses) {
  return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
}

void emit_mode(std::ostream& out, const char* name, const ModeStats& stats) {
  const auto& r = stats.result;
  out << "      \"" << name << "\": {";
  for (const auto& [key, spread] : {std::pair{"cold", stats.cold},
                                    std::pair{"steady", stats.steady}}) {
    out << "\"" << key << "_cpu_seconds\": {\"median\": " << spread.median
        << ", \"iqr\": " << spread.iqr << "}, ";
  }
  out << "\"events\": " << r.events
      << ", \"dispatch_us_per_event\": " << stats.dispatch_us_per_event
      << ", \"peak_active_flows\": " << r.peak_active_flows
      << ", \"solver_rounds\": " << r.solver_rounds
      << ", \"route_cache_hit_rate\": "
      << rate(r.route_cache_hits, r.route_cache_misses)
      << ", \"solve_cache_hit_rate\": "
      << rate(r.solve_cache_hits, r.solve_cache_misses)
      << ", \"makespan\": " << r.makespan << "}";
}

/// Process peak resident set size in bytes (VmHWM), or 0 where the Linux
/// procfs interface is unavailable. Monotone over the process lifetime, so
/// a per-cell reading means "high-water mark as of the end of this cell".
std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kib) == 1) {
      return static_cast<std::uint64_t>(kib) * 1024;
    }
  }
#endif
  return 0;
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(int argc, char** argv) {
  CliParser cli("perf_engine",
                "Times the flow engine (FlowEngine vs the from-scratch "
                "ReferenceEngine) over workload x topology cells and writes "
                "BENCH_engine.json.");
  cli.add_option("nodes", "machine size (endpoints = tasks)", "4096");
  cli.add_option("workloads",
                 "comma list of workload specs (default: all eleven)", "");
  cli.add_option("points",
                 "comma list of matrix points: fattree, torus3d, "
                 "nestghc-tT-uU, nesttree-tT-uU",
                 "nestghc-t2-u4,fattree");
  cli.add_option("seed", "workload stream seed", "42");
  cli.add_option("min-speedup",
                 "fail (exit 1) when any cell's steady speedup is below this",
                 "0");
  cli.add_option("min-dispatch-speedup",
                 "fail (exit 1) when any cell's baseline over optimized "
                 "dispatch_us_per_event is below this (0 = report only)",
                 "0");
  cli.add_option("min-cold-speedup",
                 "fail (exit 1) when any cell's cold (first-run) speedup is "
                 "below this (0 = report only)",
                 "0");
  cli.add_flag("optimized-only",
               "skip the ReferenceEngine baseline (million-endpoint cells); "
               "speedups read 0 and no speedup floor applies");
  cli.add_option("max-rss-gb",
                 "fail (exit 1) when the process peak RSS after all cells "
                 "exceeds this many GiB (0 = report only)",
                 "0");
  cli.add_option("git-sha", "source revision stamped into the JSON", "");
  cli.add_option("out", "output JSON path",
                 "build/artifacts/BENCH_engine.json");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const auto nodes = cli.get_uint("nodes");
  const auto seed = cli.get_uint("seed");
  const double min_speedup = cli.get_double("min-speedup");
  const double min_cold_speedup = cli.get_double("min-cold-speedup");
  const double min_dispatch_speedup = cli.get_double("min-dispatch-speedup");
  const bool optimized_only = cli.get_bool("optimized-only");
  const double max_rss_gb = cli.get_double("max-rss-gb");
  std::vector<std::string> workloads = cli.get_string_list("workloads");
  if (workloads.empty()) workloads = all_workload_names();

  std::vector<TopologyPoint> points;
  for (const auto& token : cli.get_string_list("points")) {
    points.push_back(parse_point_token(token));
  }

  const std::filesystem::path out_path = cli.get_string("out");
  if (out_path.has_parent_path()) {
    std::filesystem::create_directories(out_path.parent_path());
  }
  // Checked as Table::save_csv checks its file: a gate must not pass with
  // no record written.
  const auto out_error = [&](const std::string& what) {
    return CliError("out", what + " " + out_path.string() + ": " +
                               std::strerror(errno));
  };
  std::ofstream out(out_path);
  if (!out) throw out_error("cannot open for writing:");
  out.precision(12);
  out << "{\n  \"schema\": \"nestflow-bench-engine-v7\",\n"
      << "  \"git_sha\": \"" << cli.get_string("git-sha") << "\",\n"
      << "  \"compiler\": \"" << compiler_id() << "\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"nodes\": " << nodes << ",\n  \"seed\": " << seed
      << ",\n  \"hop_latency_seconds\": " << kHopLatencySeconds
      << ",\n  \"samples\": " << kSamples
      << ",\n  \"min_sample_cpu_seconds\": " << kMinSampleSeconds
      << ",\n  \"cells\": [\n";
  // Flushed now so an unwritable --out fails before any cell is timed.
  if (!out.flush()) throw out_error("write failed:");

  bool ok = true;
  bool first_cell = true;
  for (const auto& point : points) {
    std::unique_ptr<Topology> topology;
    try {
      topology = build_point(point, nodes);
    } catch (const std::invalid_argument& e) {
      std::cerr << "skipping " << point.config_name() << " at N=" << nodes
                << ": " << e.what() << "\n";
      continue;
    }
    for (const auto& spec : workloads) {
      const auto workload = make_workload(spec);
      WorkloadContext context;
      context.num_tasks = static_cast<std::uint32_t>(nodes);
      context.seed = hash_combine(seed, std::hash<std::string>{}(spec));
      const TrafficProgram program = workload->generate(context);

      std::optional<SimResult> first;
      std::optional<ModeStats> baseline;
      if (!optimized_only) {
        baseline =
            run_mode<verify::ReferenceEngine>(*topology, program, first);
      }
      const ModeStats optimized =
          run_mode<FlowEngine>(*topology, program, first);

      const std::uint32_t mismatches =
          optimized.mismatches + (baseline ? baseline->mismatches : 0);
      const bool identical = mismatches == 0;
      if (!identical) {
        std::cerr << "A/B MISMATCH on " << spec << " @ "
                  << point.config_name() << ": " << mismatches
                  << " runs differ from the cell's first run (makespan "
                  << first->makespan << ", events " << first->events << ")\n";
        ok = false;
      }
      // Without the baseline every speedup reads 0 and no floor applies.
      const double speedup =
          baseline ? ratio(baseline->steady.median, optimized.steady.median)
                   : 0.0;
      const double cold_speedup =
          baseline ? ratio(baseline->cold.median, optimized.cold.median) : 0.0;
      const auto gate = [&](const char* what, double value, double floor) {
        if (!baseline || floor <= 0.0 || value >= floor) return;
        std::cerr << what << " BELOW TARGET on " << spec << " @ "
                  << point.config_name() << ": " << value << " < " << floor
                  << "\n";
        ok = false;
      };
      gate("SPEEDUP", speedup, min_speedup);
      gate("COLD SPEEDUP", cold_speedup, min_cold_speedup);
      gate("DISPATCH SPEEDUP",
           baseline ? ratio(baseline->dispatch_us_per_event,
                            optimized.dispatch_us_per_event)
                    : 0.0,
           min_dispatch_speedup);

      if (!first_cell) out << ",\n";
      first_cell = false;
      out << "    {\n      \"point\": \"" << point.config_name()
          << "\",\n      \"workload\": \"" << spec << "\",\n";
      if (baseline) {
        emit_mode(out, "baseline", *baseline);
        out << ",\n";
      }
      emit_mode(out, "optimized", optimized);

      const std::uint64_t cell_rss = peak_rss_bytes();
      out << ",\n      \"speedup\": " << speedup
          << ",\n      \"cold_speedup\": " << cold_speedup
          << ",\n      \"peak_rss_bytes\": " << cell_rss
          << ",\n      \"bytes_per_endpoint\": "
          << (nodes > 0 ? static_cast<double>(cell_rss) /
                              static_cast<double>(nodes)
                        : 0.0)
          << ",\n      \"identical\": " << (identical ? "true" : "false")
          << "\n    }";

      std::cout << point.config_name() << " x " << spec << ": steady ";
      if (baseline) std::cout << baseline->steady.median << " -> ";
      std::cout << optimized.steady.median << " CPU s/run, speedup "
                << speedup << "x (cold " << cold_speedup << "x), route-hit "
                << rate(optimized.result.route_cache_hits,
                        optimized.result.route_cache_misses)
                << ", solve-hit "
                << rate(optimized.result.solve_cache_hits,
                        optimized.result.solve_cache_misses)
                << ", rss "
                << static_cast<double>(cell_rss) / (1024.0 * 1024.0 * 1024.0)
                << " GiB\n";
    }
  }
  if (first_cell) {
    // A point that cannot be built is skipped, but a run that skipped them
    // all timed nothing: fail rather than let a gate pass on no cells.
    throw CliError("points", "no point can be built at --nodes " +
                                 std::to_string(nodes));
  }
  out << "\n  ]\n}\n";
  out.close();
  if (out.fail()) throw out_error("write failed:");

  const double final_rss_gb =
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0 * 1024.0);
  std::cout << "peak rss: " << final_rss_gb << " GiB\n";
  if (max_rss_gb > 0.0 && final_rss_gb > max_rss_gb) {
    std::cerr << "PEAK RSS OVER BUDGET: " << final_rss_gb << " GiB > "
              << max_rss_gb << " GiB\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("perf_engine", run, argc, argv);
}
