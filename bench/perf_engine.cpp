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
// Each cell keeps ONE engine per mode and times two regimes on it:
//
//   cold:   the first-ever run (empty caches, first-touch allocations) —
//           what a one-shot simulation pays;
//   steady: best of --repeat further runs of the same program — what a
//           caller replaying one program on a persistent engine pays
//           (perfbench's warm-replay does), since the route/solve caches
//           survive across run() calls.
//
// The headline speedup is steady-vs-steady, the regime the caches exist
// for. The paper drivers build a fresh engine per cell, so what they pay
// is the cold regime, which the JSON records alongside.
//
// Every cell cross-checks bit-identity three ways (baseline vs optimized,
// and cold vs steady within each mode) on the full physical metric set — a
// free A/B of the bit-identity contract — and the binary exits non-zero on
// any mismatch or when a gate is not met. A --points entry that cannot be
// built at --nodes is skipped with a message; a run left with no cell
// exits 2. See EXPERIMENTS.md for the schema and scripts/run_bench.sh for
// the canonical invocation.
//
// Schema v4 adds memory accounting per cell: peak_rss_bytes (VmHWM from
// /proc/self/status — the process high-water mark as of the end of the
// cell, monotone across cells; 0 on non-Linux hosts) and
// bytes_per_endpoint (peak_rss_bytes / nodes). --optimized-only skips the
// ReferenceEngine baseline so million-endpoint cells do not have to pay a
// full re-solve per event; such cells report speedup 0 and gate identity
// on cold-vs-steady self-consistency alone. --max-rss-gb fails the run
// when the final peak RSS exceeds the given budget.
//
// Schema v5 adds a per-phase timing breakdown to each mode object —
// route_us_per_event, dispatch_us_per_event, audit_us_per_event alongside
// the existing solve_us_per_event (all from EngineOptions::time_solver;
// the baseline fills route, solve and dispatch only) —
// so a wall-time regression is attributable to routing, solving, event
// dispatch, or auditing rather than just to a cell. It also adds the
// --min-cold-speedup gate: cold (first-run) speedup is gated separately
// from steady because the cold regime pays cache construction and
// first-touch allocation, so its floor legitimately sits below 1.
//
// Schema v6 splits dispatch_us_per_event into its kernel phases —
// advance_us_per_event (lazy flow advancement + zero-rate scan),
// select_us_per_event (dt selection: the slot-finish candidate scan),
// complete_us_per_event (completion harvest + swap-compaction +
// DAG release) — and adds peak_active_flows plus the concurrency-
// normalized dispatch_ns_per_event_per_kactive (dispatch cost per event
// per 1024 concurrently active flows), so dispatch regressions are
// attributable to a kernel phase and comparable across cells with very
// different flow concurrency. It also adds the --min-dispatch-speedup
// gate: baseline dispatch_us_per_event over optimized, gated per cell
// wherever the baseline mode runs.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
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
#include "verify/reference_engine.hpp"
#include "workloads/factory.hpp"

namespace {

using namespace nestflow;

struct ModeStats {
  double cold_wall_seconds = 0.0;
  double steady_wall_seconds = 0.0;
  SimResult result;  // steady-regime result (== cold when self_consistent)
  bool self_consistent = true;  // cold and steady runs agreed bit-for-bit
};

/// A positive 32-bit integer spanning all of `text` (no sign, no
/// whitespace, no trailing junk), or nullopt.
std::optional<std::uint32_t> parse_positive(std::string_view text) {
  std::uint32_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || value == 0) return std::nullopt;
  return value;
}

// Point tokens keep the CLI comma-list friendly: "fattree", "torus3d",
// "nestghc-t2-u4", "nesttree-t4-u2".
TopologyPoint parse_point_token(const std::string& token) {
  if (token == "fattree") return TopologyPoint{"Fattree", 0, 0, std::nullopt};
  if (token == "torus3d") return TopologyPoint{"Torus3D", 0, 0, std::nullopt};
  const auto parse_nested = [&](std::string_view prefix, std::string label,
                                UpperTierKind upper)
      -> std::optional<TopologyPoint> {
    if (!token.starts_with(prefix)) return std::nullopt;
    // "tT-uU" and nothing else: "t-1-u4" and "t2-u4junk" are rejected.
    const std::string_view rest = std::string_view(token).substr(prefix.size());
    const auto dash = rest.find("-u");
    const auto t = rest.starts_with('t') && dash != std::string_view::npos
                       ? parse_positive(rest.substr(1, dash - 1))
                       : std::nullopt;
    const auto u = t ? parse_positive(rest.substr(dash + 2)) : std::nullopt;
    if (!u) throw std::invalid_argument("bad point token: " + token);
    return TopologyPoint{std::move(label), *t, *u, upper};
  };
  if (auto p = parse_nested("nestghc-", "NestGHC", UpperTierKind::kGhc)) {
    return *p;
  }
  if (auto p = parse_nested("nesttree-", "NestTree", UpperTierKind::kFattree)) {
    return *p;
  }
  throw std::invalid_argument(
      "bad point token: " + token +
      " (expected fattree, torus3d, nestghc-tT-uU or nesttree-tT-uU)");
}

template <typename Engine>
double time_run(Engine& engine, const TrafficProgram& program,
                SimResult& result) {
  const auto t0 = std::chrono::steady_clock::now();
  result = engine.run(program);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Every metric a simulation *means*: what happened on the fabric. Two runs
/// agreeing here are the same simulation, whatever machinery produced them.
bool same_physical(const SimResult& a, const SimResult& b) {
  return a.makespan == b.makespan && a.events == b.events &&
         a.total_bytes == b.total_bytes && a.num_flows == b.num_flows &&
         a.max_link_utilization == b.max_link_utilization &&
         a.avg_active_flows == b.avg_active_flows &&
         a.peak_active_flows == b.peak_active_flows &&
         a.bytes_by_class == b.bytes_by_class &&
         a.stranded_flows == b.stranded_flows &&
         a.cancelled_flows == b.cancelled_flows &&
         a.rerouted_flows == b.rerouted_flows &&
         a.reroute_extra_hops == b.reroute_extra_hops &&
         a.undelivered_bytes == b.undelivered_bytes;
}

/// Times one engine (FlowEngine or the ReferenceEngine baseline) on a cell:
/// a cold run, then `repeat` steady runs on the same engine.
template <typename Engine>
ModeStats run_mode(const Topology& topology, const TrafficProgram& program,
                   std::uint32_t repeat, double latency,
                   std::size_t solve_cache_words) {
  EngineOptions options;
  options.adaptive_routing = false;  // identical deterministic paths
  options.time_solver = true;
  options.hop_latency_seconds = latency;
  options.solve_cache_budget_words = solve_cache_words;

  Engine engine(topology, options);
  ModeStats stats;
  SimResult cold;
  stats.cold_wall_seconds = time_run(engine, program, cold);
  stats.result = cold;
  stats.steady_wall_seconds = stats.cold_wall_seconds;
  for (std::uint32_t r = 0; r < repeat; ++r) {
    SimResult steady;
    const double wall = time_run(engine, program, steady);
    // Physical-only: a cold run misses the caches a steady run hits, so the
    // counters legitimately differ between the two regimes.
    if (!same_physical(cold, steady)) stats.self_consistent = false;
    if (r == 0 || wall < stats.steady_wall_seconds) {
      stats.steady_wall_seconds = wall;
      stats.result = std::move(steady);
    }
  }
  return stats;
}

double rate(std::uint64_t hits, std::uint64_t misses) {
  const double lookups = static_cast<double>(hits + misses);
  return lookups > 0.0 ? static_cast<double>(hits) / lookups : 0.0;
}

void emit_mode(std::ostream& out, const char* name, const ModeStats& stats) {
  const auto& r = stats.result;
  const double events = static_cast<double>(r.events);
  out << "      \"" << name << "\": {"
      << "\"cold_wall_seconds\": " << stats.cold_wall_seconds
      << ", \"steady_wall_seconds\": " << stats.steady_wall_seconds
      << ", \"events\": " << r.events
      << ", \"events_per_sec\": "
      << (stats.steady_wall_seconds > 0.0 ? events / stats.steady_wall_seconds
                                          : 0.0)
      << ", \"solve_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.solve_seconds / events : 0.0)
      // Phase breakdown of the steady-regime loop (EngineOptions::
      // time_solver): routing/activation, event dispatch bookkeeping, and
      // per-event audit hooks. Together with solve_us_per_event this
      // accounts for where a cell's wall time actually goes, so a
      // regression is attributable to a phase, not just a cell.
      << ", \"route_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.route_seconds / events : 0.0)
      << ", \"dispatch_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.dispatch_seconds / events : 0.0)
      // Schema v6: the dispatch kernel's own phase split (advance = lazy
      // flow advancement + zero-rate scan, select = dt selection, complete
      // = harvest + compaction + DAG release), plus the dispatch cost
      // normalized by flow concurrency — ns per event per 1024 peak-active
      // flows — which is the honest cross-cell comparison when one cell
      // runs 35 giant events and another runs millions of tiny ones.
      << ", \"advance_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.advance_seconds / events : 0.0)
      << ", \"select_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.select_seconds / events : 0.0)
      << ", \"complete_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.complete_seconds / events : 0.0)
      << ", \"peak_active_flows\": " << r.peak_active_flows
      << ", \"dispatch_ns_per_event_per_kactive\": "
      << (r.events > 0 && r.peak_active_flows > 0
              ? 1e9 * r.dispatch_seconds / events /
                    (static_cast<double>(r.peak_active_flows) / 1024.0)
              : 0.0)
      << ", \"audit_us_per_event\": "
      << (r.events > 0 ? 1e6 * r.audit_seconds / events : 0.0)
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
  cli.add_option("repeat", "steady-regime runs per cell; best is kept", "3");
  cli.add_option("seed", "workload stream seed", "42");
  cli.add_option("latency", "per-hop latency in seconds", "1e-6");
  cli.add_option("min-speedup",
                 "fail (exit 1) when any cell's steady speedup is below this",
                 "0");
  cli.add_option("min-dispatch-speedup",
                 "fail (exit 1) when any cell's dispatch-phase speedup "
                 "(baseline dispatch_us_per_event / optimized) is below "
                 "this; requires the baseline mode, so it is ignored under "
                 "--optimized-only (0 = report only)",
                 "0");
  cli.add_option("min-cold-speedup",
                 "fail (exit 1) when any cell's cold (first-run) speedup is "
                 "below this; cold runs pay cache construction, so the floor "
                 "sits below 1 and guards the cold-start tax separately from "
                 "the steady gate (0 = report only)",
                 "0");
  cli.add_flag("optimized-only",
               "skip the ReferenceEngine baseline (million-endpoint cells); "
               "speedup is reported as 0 and identity gates on cold-vs-"
               "steady self-consistency of the optimized mode alone");
  cli.add_option("max-rss-gb",
                 "fail (exit 1) when the process peak RSS after all cells "
                 "exceeds this many GiB (0 = report only)",
                 "0");
  cli.add_option("solve-cache-mb",
                 "solve-cache arena budget in MiB for the optimized modes; "
                 "sized so a steady-state sweep's whole solve sequence stays "
                 "resident (giant-flow-set workloads like the mapreduce "
                 "shuffle need hundreds of MiB per program)",
                 "512");
  cli.add_option("git-sha", "source revision stamped into the JSON", "");
  cli.add_option("out", "output JSON path",
                 "build/artifacts/BENCH_engine.json");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const auto nodes = cli.get_uint("nodes");
  const auto repeat = static_cast<std::uint32_t>(cli.get_uint("repeat"));
  const auto seed = cli.get_uint("seed");
  const double latency = cli.get_double("latency");
  const double min_speedup = cli.get_double("min-speedup");
  const double min_cold_speedup = cli.get_double("min-cold-speedup");
  const double min_dispatch_speedup = cli.get_double("min-dispatch-speedup");
  const bool optimized_only = cli.get_bool("optimized-only");
  const double max_rss_gb = cli.get_double("max-rss-gb");
  const std::size_t solve_cache_words =
      static_cast<std::size_t>(cli.get_uint("solve-cache-mb")) *
      ((1u << 20) / 8);
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

  bool ok = true;
  std::ofstream out(out_path);
  out.precision(12);
  out << "{\n  \"schema\": \"nestflow-bench-engine-v6\",\n"
      << "  \"git_sha\": \"" << cli.get_string("git-sha") << "\",\n"
      << "  \"compiler\": \"" << compiler_id() << "\",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"nodes\": " << nodes << ",\n  \"repeat\": " << repeat
      << ",\n  \"seed\": " << seed << ",\n  \"hop_latency_seconds\": "
      << latency << ",\n  \"cells\": [\n";

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

      std::optional<ModeStats> baseline;
      if (!optimized_only) {
        baseline = run_mode<verify::ReferenceEngine>(
            *topology, program, repeat, latency, solve_cache_words);
      }
      const ModeStats optimized = run_mode<FlowEngine>(
          *topology, program, repeat, latency, solve_cache_words);

      const bool identical =
          (!baseline ||
           (same_physical(baseline->result, optimized.result) &&
            baseline->self_consistent)) &&
          optimized.self_consistent;
      const double speedup =
          baseline && optimized.steady_wall_seconds > 0.0
              ? baseline->steady_wall_seconds / optimized.steady_wall_seconds
              : 0.0;
      const double cold_speedup =
          baseline && optimized.cold_wall_seconds > 0.0
              ? baseline->cold_wall_seconds / optimized.cold_wall_seconds
              : 0.0;
      if (!identical) {
        std::cerr << "A/B MISMATCH on " << spec << " @ "
                  << point.config_name() << ": ";
        if (baseline) {
          std::cerr << "baseline makespan " << baseline->result.makespan
                    << " events " << baseline->result.events
                    << " (self-consistent " << baseline->self_consistent
                    << ") vs ";
        }
        std::cerr << "optimized " << optimized.result.makespan << " / "
                  << optimized.result.events << " (self-consistent "
                  << optimized.self_consistent << ")\n";
        ok = false;
      }
      if (baseline && min_speedup > 0.0 && speedup < min_speedup) {
        std::cerr << "SPEEDUP BELOW TARGET on " << spec << " @ "
                  << point.config_name() << ": " << speedup << " < "
                  << min_speedup << "\n";
        ok = false;
      }
      if (baseline && min_cold_speedup > 0.0 &&
          cold_speedup < min_cold_speedup) {
        std::cerr << "COLD SPEEDUP BELOW TARGET on " << spec << " @ "
                  << point.config_name() << ": " << cold_speedup << " < "
                  << min_cold_speedup << "\n";
        ok = false;
      }
      if (baseline && min_dispatch_speedup > 0.0) {
        const double dispatch_speedup =
            optimized.result.dispatch_seconds > 0.0
                ? baseline->result.dispatch_seconds /
                      optimized.result.dispatch_seconds
                : 0.0;
        if (dispatch_speedup < min_dispatch_speedup) {
          std::cerr << "DISPATCH SPEEDUP BELOW TARGET on " << spec << " @ "
                    << point.config_name() << ": " << dispatch_speedup
                    << " < " << min_dispatch_speedup << "\n";
          ok = false;
        }
      }

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
      if (baseline) std::cout << baseline->steady_wall_seconds << " s -> ";
      std::cout << optimized.steady_wall_seconds << " s, speedup " << speedup
                << "x (cold " << cold_speedup << "x), route-hit "
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
