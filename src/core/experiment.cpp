#include "core/experiment.hpp"

#include <charconv>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/log.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace nestflow {

std::string TopologyPoint::config_name() const {
  if (t == 0) return label;
  std::ostringstream out;
  out << label << "(t=" << t << ",u=" << u << ")";
  return out.str();
}

std::vector<TopologyPoint> paper_topology_matrix(
    const std::vector<std::uint32_t>& t_values,
    const std::vector<std::uint32_t>& u_values) {
  std::vector<TopologyPoint> points;
  for (const auto upper : {UpperTierKind::kGhc, UpperTierKind::kFattree}) {
    for (const auto t : t_values) {
      for (const auto u : u_values) {
        points.push_back(TopologyPoint{
            upper == UpperTierKind::kGhc ? "NestGHC" : "NestTree", t, u,
            upper});
      }
    }
  }
  points.push_back(TopologyPoint{"Fattree", 0, 0, std::nullopt});
  points.push_back(TopologyPoint{"Torus3D", 0, 0, std::nullopt});
  return points;
}

std::unique_ptr<Topology> build_point(const TopologyPoint& point,
                                      std::uint64_t n) {
  if (point.t != 0) {
    return make_nested(n, point.t, point.u, *point.upper);
  }
  if (point.label == "Fattree") return make_reference_fattree(n);
  if (point.label == "Torus3D") return make_reference_torus(n);
  throw std::invalid_argument("build_point: unknown reference topology " +
                              point.label);
}

namespace {

/// A positive 32-bit integer spanning all of `text` (no sign, no
/// whitespace, no trailing junk), or nullopt.
std::optional<std::uint32_t> parse_positive(std::string_view text) {
  std::uint32_t value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || value == 0) return std::nullopt;
  return value;
}

}  // namespace

TopologyPoint parse_point_token(const std::string& token) {
  if (token == "fattree") return TopologyPoint{"Fattree", 0, 0, std::nullopt};
  if (token == "torus3d") return TopologyPoint{"Torus3D", 0, 0, std::nullopt};
  const auto parse_nested = [&](std::string_view prefix, std::string label,
                                UpperTierKind upper)
      -> std::optional<TopologyPoint> {
    if (!token.starts_with(prefix)) return std::nullopt;
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

std::vector<DistanceRow> run_distance_analysis(
    const DistanceAnalysisConfig& config) {
  const auto points = paper_topology_matrix();
  std::vector<DistanceRow> rows(points.size());
  ThreadPool pool(config.threads);
  std::mutex log_mutex;

  pool.parallel_for(points.size(), [&](std::size_t i) {
    const auto& point = points[i];
    rows[i].point = point;
    std::unique_ptr<Topology> topology;
    try {
      topology = build_point(point, config.num_nodes);
    } catch (const std::invalid_argument& e) {
      rows[i].valid = false;
      std::lock_guard lock(log_mutex);
      log_warn("skipping ", point.config_name(), " at N=", config.num_nodes,
               ": ", e.what());
      return;
    }
    const auto route_len = [&topology](std::uint32_t s, std::uint32_t d) {
      return topology->route_distance(s, d);
    };
    const auto report = sampled_routed_report(
        topology->num_endpoints(), route_len, config.sample_pairs,
        config.seed, topology->adversarial_pairs());
    rows[i].average = report.average;
    rows[i].diameter = report.diameter;
    rows[i].exact = report.exact;
    std::lock_guard lock(log_mutex);
    log_debug("distance analysis done: ", point.config_name());
  });
  return rows;
}

std::vector<OverheadRow> run_overhead_analysis(std::uint64_t num_nodes) {
  const auto points = paper_topology_matrix();
  std::vector<OverheadRow> rows;
  rows.reserve(points.size());
  for (const auto& point : points) {
    std::uint64_t switches = 0;
    if (point.t != 0) {
      const std::uint64_t uplinked = num_nodes / point.u;
      if (point.upper == UpperTierKind::kFattree) {
        for (const auto d : paper_fattree_arities(uplinked)) {
          switches += uplinked / d;
        }
      } else {
        for (const auto d : balanced_ghc_dims(uplinked)) {
          if (d >= 2) switches += uplinked / d;
        }
      }
    } else if (point.label == "Fattree") {
      for (const auto d : paper_fattree_arities(num_nodes)) {
        switches += num_nodes / d;
      }
    }  // Torus3D: no switches at all
    rows.push_back(OverheadRow{point, estimate_overhead(num_nodes, switches)});
  }
  return rows;
}

std::vector<SimulationCell> run_simulation_sweep(
    const SimulationSweepConfig& config) {
  if (config.workloads.empty()) {
    throw std::invalid_argument("run_simulation_sweep: no workloads");
  }
  const auto points =
      paper_topology_matrix(config.t_values, config.u_values);

  struct Job {
    std::size_t point_index;
    std::size_t workload_index;
  };
  std::vector<Job> jobs;
  for (std::size_t w = 0; w < config.workloads.size(); ++w) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      jobs.push_back(Job{p, w});
    }
  }

  std::vector<SimulationCell> cells(jobs.size());
  ThreadPool pool(config.threads);
  std::mutex log_mutex;

  // Build each topology point once and share it read-only across that
  // point's workload cells: topologies are immutable after construction
  // (route() is const and thread-safe), and at full machine sizes the graph
  // build dominates a light workload's simulation time. A nullptr marks a
  // point that cannot be instantiated at this machine size.
  std::vector<std::unique_ptr<const Topology>> topologies(points.size());
  pool.parallel_for(points.size(), [&](std::size_t p) {
    try {
      topologies[p] = build_point(points[p], config.num_nodes);
    } catch (const std::invalid_argument& e) {
      std::lock_guard lock(log_mutex);
      log_warn("skipping ", points[p].config_name(),
               " at N=", config.num_nodes, ": ", e.what());
    }
  });

  pool.parallel_for(jobs.size(), [&](std::size_t i) {
    const auto& job = jobs[i];
    const auto& point = points[job.point_index];
    const std::string& workload_name = config.workloads[job.workload_index];

    cells[i].point = point;
    cells[i].workload = workload_name;
    const Topology* topology = topologies[job.point_index].get();
    if (topology == nullptr) {
      cells[i].valid = false;
      return;
    }
    const auto workload = make_workload(workload_name);
    // The workload stream depends only on the workload (and seed), so every
    // topology sees the *identical* traffic program.
    WorkloadContext context;
    context.num_tasks = static_cast<std::uint32_t>(config.num_nodes);
    context.seed = hash_combine(config.seed,
                                std::hash<std::string>{}(workload_name));
    const TrafficProgram program = workload->generate(context);

    FlowEngine engine(*topology, config.engine);
    cells[i].result = engine.run(program);

    if (config.verbose) {
      std::lock_guard lock(log_mutex);
      log_info(workload_name, " on ", point.config_name(), ": ",
               cells[i].result.makespan, " s (", cells[i].result.events,
               " events)");
    }
  });

  // Normalise each workload to its reference fat-tree cell.
  for (std::size_t w = 0; w < config.workloads.size(); ++w) {
    double fattree_time = 0.0;
    for (const auto& cell : cells) {
      if (cell.workload == config.workloads[w] && cell.valid &&
          cell.point.label == "Fattree") {
        fattree_time = cell.result.makespan;
        break;
      }
    }
    for (auto& cell : cells) {
      if (cell.workload == config.workloads[w] && cell.valid &&
          fattree_time > 0.0) {
        cell.normalized_time = cell.result.makespan / fattree_time;
      }
    }
  }
  return cells;
}

}  // namespace nestflow
