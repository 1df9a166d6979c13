// Shared driver for the Figure 4 / Figure 5 benches: runs the simulation
// sweep over the paper's topology matrix for a set of workloads and prints
// one normalised-time panel per workload (the tabular equivalent of the
// paper's bar groups; values are normalised to the reference fat-tree).
// --t and --u narrow the hybrid rows of the matrix; the Fattree and
// Torus3D reference points always run, since every panel is normalised to
// the Fattree cell. A machine size at which a panel would have no Fattree
// cell or no hybrid cell is rejected before any simulation runs.
#pragma once

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "workloads/factory.hpp"

namespace nestflow::benchtool {

struct FigureSpec {
  std::string figure_name;                  // "Figure 4 (heavy workloads)"
  std::vector<std::string> workloads;       // panel order
  /// Workloads whose flow count grows quadratically run at a reduced
  /// machine size; 0 means "use --nodes".
  std::map<std::string, std::uint64_t> node_override;
};

inline int run_figure(const FigureSpec& spec, int argc, const char* const* argv) {
  CliParser cli("figure_bench",
                spec.figure_name +
                    ": normalised execution time over the topology matrix");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "1024");
  cli.add_option("seed", "workload seed", "42");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("quantum",
                 "relative rate quantisation (speed/accuracy trade-off)",
                 "0.01");
  cli.add_option("latency", "per-hop router latency in seconds", "1e-6");
  cli.add_option("workloads", "comma-separated subset of panels to run", "");
  cli.add_option("t", "comma-separated subtorus sizes of the hybrid rows",
                 "2,4,8");
  cli.add_option("u", "comma-separated uplink thinnings of the hybrid rows",
                 "8,4,2,1");
  cli.add_option("csv", "write per-cell results to this CSV path", "");
  cli.add_flag("verbose", "log every finished simulation cell");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  std::vector<std::string> selected = spec.workloads;
  if (!cli.get_string("workloads").empty()) {
    selected = cli.get_string_list("workloads");
    // Reject an unknown panel before any topology is built.
    for (const auto& name : selected) static_cast<void>(make_workload(name));
  }
  const auto matrix_values = [&cli](const char* flag) {
    std::vector<std::uint32_t> values;
    for (const std::int64_t v : cli.get_int_list(flag)) {
      if (v <= 0 || v > std::numeric_limits<std::uint32_t>::max()) {
        throw CliError(flag, "values must be positive 32-bit integers, got " +
                                 std::to_string(v));
      }
      values.push_back(static_cast<std::uint32_t>(v));
    }
    if (values.empty()) throw CliError(flag, "needs at least one value");
    return values;
  };
  const std::vector<std::uint32_t> t_values = matrix_values("t");
  const std::vector<std::uint32_t> u_values = matrix_values("u");
  const double quantum = cli.get_non_negative_double("quantum");
  const double latency = cli.get_non_negative_double("latency");

  // Group workloads by effective machine size so each group is one sweep.
  std::map<std::uint64_t, std::vector<std::string>> by_nodes;
  for (const auto& name : selected) {
    const auto it = spec.node_override.find(name);
    const std::uint64_t nodes = it != spec.node_override.end() && it->second
                                    ? std::min<std::uint64_t>(
                                          it->second, cli.get_uint("nodes"))
                                    : cli.get_uint("nodes");
    by_nodes[nodes].push_back(name);
  }

  const auto matrix = paper_topology_matrix(t_values, u_values);
  for (const auto& [nodes, workloads] : by_nodes) {
    const auto builds = [n = nodes](const TopologyPoint& point) {
      try {
        static_cast<void>(build_point(point, n));
        return true;
      } catch (const std::invalid_argument&) {
        return false;
      }
    };
    std::string missing;
    if (!builds(TopologyPoint{"Fattree", 0, 0, std::nullopt})) {
      missing = "the Fattree point, every panel's normalisation base,";
    } else if (std::none_of(matrix.begin(), matrix.end(),
                            [&](const TopologyPoint& p) {
                              return p.t != 0 && builds(p);
                            })) {
      missing = "any NestGHC or NestTree point";
    }
    if (!missing.empty()) {
      std::string panels;
      for (const auto& name : workloads) {
        panels += (panels.empty() ? "" : ", ") + name;
      }
      throw CliError("nodes", "cannot build " + missing + " at N = " +
                                  std::to_string(nodes) + " (panels: " +
                                  panels + ")");
    }
  }

  std::printf("== %s ==\n", spec.figure_name.c_str());
  std::vector<SimulationCell> all_cells;
  for (const auto& [nodes, workloads] : by_nodes) {
    SimulationSweepConfig config;
    config.num_nodes = nodes;
    config.workloads = workloads;
    config.t_values = t_values;
    config.u_values = u_values;
    config.seed = cli.get_uint("seed");
    config.threads = static_cast<std::uint32_t>(cli.get_uint("threads"));
    config.engine.rate_quantum_rel = quantum;
    config.engine.completion_batch_rel = 1e-3;
    config.engine.hop_latency_seconds = latency;
    config.verbose = cli.get_bool("verbose");
    auto cells = run_simulation_sweep(config);
    for (auto& cell : cells) all_cells.push_back(std::move(cell));

    for (const auto& workload : workloads) {
      std::printf("\n-- %s (N = %llu, normalised to Fattree = 1.0) --\n",
                  workload.c_str(), static_cast<unsigned long long>(nodes));
      const auto panel = format_figure_panel(all_cells, workload);
      std::fputs(panel.to_text().c_str(), stdout);
    }
  }

  const auto csv = cli.get_string("csv");
  if (!csv.empty()) {
    format_cells_csv(all_cells).save_csv(csv);
    std::printf("\nwrote %s\n", csv.c_str());
  }
  return 0;
}

}  // namespace nestflow::benchtool
