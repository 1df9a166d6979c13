// Reproducible engine-performance harness (BENCH_engine.json).
//
// Times the flow engine on (workload x matrix-point) cells at a given
// machine size, in two modes over identical deterministic routing
// (adaptive routing off so both modes execute the same paths):
//
//   optimized: FlowEngine — incremental component re-solve, route and
//              solve caches, indexed dispatch
//   baseline:  the ReferenceEngine (src/verify/reference_engine.hpp) —
//              re-route every activation, re-solve every active flow and
//              sweep every flow at every event, sharing none of the above
//
// Each cell keeps ONE engine per mode and times two regimes on it:
//
//   cold:   the first-ever run (empty caches, first-touch allocations) —
//           what a one-shot simulation pays;
//   steady: best of --repeat further runs of the same program — what the
//           repo's sweep and ablation drivers pay, since they re-run
//           programs on persistent engines and the route/solve caches
//           survive across run() calls.
//
// The headline speedup is steady-vs-steady: full-machine design sweeps are
// the workload this PR targets, and they operate in the steady regime. The
// JSON also records cold numbers so the one-shot cost stays tracked.
//
// Schema v3 adds a thread-scaling section: --threads takes a comma list of
// solver thread counts and re-times the optimized configuration at each,
// asserting that every thread count reproduces the serial run's physical
// metrics and work counters bit-for-bit. --min-thread-speedup optionally
// gates the best 4-thread-vs-serial steady speedup; it defaults to 0
// (report-only) because wall-clock scaling is a property of the host, not
// the code — see scripts/run_bench.sh, which engages it only on multi-core
// machines.
//
// Every cell cross-checks bit-identity three ways (baseline vs optimized,
// and cold vs steady within each mode) on the full physical metric set — a
// free A/B of the bit-identity contract — and the binary exits non-zero on
// any mismatch or when a gate is not met. See EXPERIMENTS.md for the
// schema and scripts/run_bench.sh for the canonical invocation.
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
// select_us_per_event (dt selection: slot-finish min sweep or indexed
// heap), complete_us_per_event (completion harvest + swap-compaction +
// DAG release) — and adds peak_active_flows plus the concurrency-
// normalized dispatch_ns_per_event_per_kactive (dispatch cost per event
// per 1024 concurrently active flows), so dispatch regressions are
// attributable to a kernel phase and comparable across cells with very
// different flow concurrency. It also adds the --min-dispatch-speedup
// gate: baseline dispatch_us_per_event over optimized, gated per cell
// wherever the baseline mode runs.
#include <algorithm>
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
  // The FINAL repeat iteration's result (== cold when repeat is 0), used for
  // counter-identity comparisons. `result` tracks the *fastest* iteration,
  // and which iteration wins is timing noise — while cache counters evolve
  // across iterations (a steady run can still insert entries the cold run
  // did not), so counters from best-of-repeat results are not comparable
  // across independently-timed runs. Iteration k's counters ARE a
  // deterministic function of the configuration, so pinning the comparison
  // to a fixed k makes the identity check reproducible.
  SimResult identity_result;
  bool self_consistent = true;  // cold and steady runs agreed bit-for-bit
};

// Point tokens keep the CLI comma-list friendly: "fattree", "torus3d",
// "nestghc-t2-u4", "nesttree-t4-u2".
TopologyPoint parse_point_token(const std::string& token) {
  if (token == "fattree") return TopologyPoint{"Fattree", 0, 0, std::nullopt};
  if (token == "torus3d") return TopologyPoint{"Torus3D", 0, 0, std::nullopt};
  const auto parse_nested = [&](std::string_view prefix, std::string label,
                                UpperTierKind upper)
      -> std::optional<TopologyPoint> {
    if (token.rfind(prefix, 0) != 0) return std::nullopt;
    std::uint32_t t = 0, u = 0;
    if (std::sscanf(token.c_str() + prefix.size(), "t%u-u%u", &t, &u) != 2 ||
        t == 0 || u == 0) {
      throw std::invalid_argument("bad point token: " + token);
    }
    return TopologyPoint{std::move(label), t, u, upper};
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

/// same_physical plus the work counters — the full-determinism bar that runs
/// at every solver_threads count must clear against each other.
bool same_full(const SimResult& a, const SimResult& b) {
  return same_physical(a, b) && a.solver_rounds == b.solver_rounds &&
         a.route_cache_hits == b.route_cache_hits &&
         a.route_cache_misses == b.route_cache_misses &&
         a.solve_cache_hits == b.solve_cache_hits &&
         a.solve_cache_misses == b.solve_cache_misses;
}

/// Times one engine (FlowEngine or the ReferenceEngine baseline) on a cell:
/// a cold run, then `repeat` steady runs on the same engine.
template <typename Engine>
ModeStats run_mode(const Topology& topology, const TrafficProgram& program,
                   std::uint32_t repeat, double latency,
                   std::size_t solve_cache_words,
                   std::uint32_t solver_threads = 1) {
  EngineOptions options;
  options.adaptive_routing = false;  // identical deterministic paths
  options.time_solver = true;
  options.hop_latency_seconds = latency;
  options.solve_cache_budget_words = solve_cache_words;
  options.solver_threads = solver_threads;

  Engine engine(topology, options);
  ModeStats stats;
  SimResult cold;
  stats.cold_wall_seconds = time_run(engine, program, cold);
  stats.result = cold;
  stats.identity_result = cold;
  stats.steady_wall_seconds = stats.cold_wall_seconds;
  for (std::uint32_t r = 0; r < repeat; ++r) {
    SimResult steady;
    const double wall = time_run(engine, program, steady);
    // Physical-only: a cold run misses the caches a steady run hits, so the
    // counters legitimately differ between the two regimes.
    if (!same_physical(cold, steady)) stats.self_consistent = false;
    if (r + 1 == repeat) stats.identity_result = steady;
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

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("perf_engine",
                "Times the flow engine (FlowEngine vs the from-scratch "
                "ReferenceEngine, plus parallel solver thread scaling) over "
                "workload x topology cells and writes BENCH_engine.json.");
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
  cli.add_option("threads",
                 "comma list of solver thread counts for the thread-scaling "
                 "section (empty = skip it)",
                 "");
  cli.add_option("min-thread-speedup",
                 "fail (exit 1) when the best 4-thread steady speedup over "
                 "the serial solver across cells is below this (0 = report "
                 "only; identicality is always enforced)",
                 "0");
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
  const double min_thread_speedup = cli.get_double("min-thread-speedup");
  std::vector<std::string> workloads = cli.get_string_list("workloads");
  if (workloads.empty()) workloads = all_workload_names();
  std::vector<std::uint32_t> thread_counts;
  for (const auto t : cli.get_int_list("threads")) {
    if (t < 1) throw std::invalid_argument("--threads entries must be >= 1");
    thread_counts.push_back(static_cast<std::uint32_t>(t));
  }

  std::vector<TopologyPoint> points;
  for (const auto& token : cli.get_string_list("points")) {
    points.push_back(parse_point_token(token));
  }

  const std::filesystem::path out_path = cli.get_string("out");
  if (out_path.has_parent_path()) {
    std::filesystem::create_directories(out_path.parent_path());
  }

  bool ok = true;
  // Best steady speedup of each thread count over serial across all cells:
  // the gate asks whether parallelism CAN pay on this host, so the most
  // favourable cell (largest components, least event churn) is the honest
  // witness.
  double best_4thread_speedup = 0.0;
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

      // ------------------------------------------- thread-scaling section
      if (!thread_counts.empty()) {
        out << ",\n      \"thread_scaling\": [";
        // The serial (threads=1) optimized run anchors every comparison:
        // physical and counter identicality for every count, and the
        // speedup baseline.
        std::optional<ModeStats> serial;
        bool first_entry = true;
        for (const auto threads : thread_counts) {
          const ModeStats timed = run_mode<FlowEngine>(
              *topology, program, repeat, latency, solve_cache_words, threads);
          if (threads == 1 && !serial) serial = timed;
          if (!serial) {
            serial = run_mode<FlowEngine>(*topology, program, repeat, latency,
                                          solve_cache_words, 1);
          }

          const bool physical_identical =
              same_physical(serial->result, timed.result) &&
              timed.self_consistent;
          // Counter identity compares identity_result (the final repeat
          // iteration), never the best-of-repeat result: cache counters
          // evolve across steady iterations, so comparing whichever
          // iteration happened to be fastest is timing-dependent noise.
          const bool counters_identical =
              same_full(serial->identity_result, timed.identity_result);
          if (!physical_identical || !counters_identical) {
            std::cerr << "THREAD MISMATCH on " << spec << " @ "
                      << point.config_name() << " at solver_threads="
                      << threads << ": physical "
                      << (physical_identical ? "ok" : "DIVERGED")
                      << ", counters "
                      << (counters_identical ? "ok" : "DIVERGED") << "\n";
            ok = false;
          }

          const double thread_speedup =
              timed.steady_wall_seconds > 0.0
                  ? serial->steady_wall_seconds / timed.steady_wall_seconds
                  : 0.0;
          if (threads == 4) {
            best_4thread_speedup =
                std::max(best_4thread_speedup, thread_speedup);
          }
          if (!first_entry) out << ", ";
          first_entry = false;
          out << "{\"threads\": " << threads << ", \"cold_wall_seconds\": "
              << timed.cold_wall_seconds << ", \"steady_wall_seconds\": "
              << timed.steady_wall_seconds << ", \"speedup_vs_serial\": "
              << thread_speedup << ", \"identical\": "
              << ((physical_identical && counters_identical) ? "true"
                                                             : "false")
              << "}";

          std::cout << "  threads=" << threads << ": steady "
                    << timed.steady_wall_seconds << " s, "
                    << thread_speedup << "x vs serial, identical "
                    << ((physical_identical && counters_identical) ? "yes"
                                                                   : "NO")
                    << "\n";
        }
        out << "]";
      }

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
  out << "\n  ]\n}\n";

  if (min_thread_speedup > 0.0 &&
      best_4thread_speedup < min_thread_speedup) {
    std::cerr << "THREAD SPEEDUP BELOW TARGET: best 4-thread steady speedup "
              << best_4thread_speedup << " < " << min_thread_speedup << "\n";
    ok = false;
  }
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
