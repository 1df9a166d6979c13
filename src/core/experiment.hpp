// Experiment driver: builds the paper's configuration matrix — NestGHC and
// NestTree over (t, u) in {2,4,8} x {8,4,2,1}, plus the reference fat-tree
// and 3-D torus — and evaluates it statically (Tables 1-2) or dynamically
// (Figures 4-5) with the flow engine, fanning independent cells across a
// thread pool. Results are deterministic in the seed regardless of thread
// count.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "flowsim/engine.hpp"
#include "graph/distance_metrics.hpp"
#include "topo/factory.hpp"
#include "workloads/factory.hpp"

namespace nestflow {

/// One point of the topology matrix. t == u == 0 marks the reference
/// (non-nested) topologies.
struct TopologyPoint {
  std::string label;  // "NestGHC", "NestTree", "Fattree", "Torus3D"
  std::uint32_t t = 0;
  std::uint32_t u = 0;
  std::optional<UpperTierKind> upper;  // set for nested points

  [[nodiscard]] std::string config_name() const;  // e.g. "NestGHC(t=2,u=4)"
};

/// The paper's full matrix: 12 NestGHC + 12 NestTree + Fattree + Torus3D.
[[nodiscard]] std::vector<TopologyPoint> paper_topology_matrix(
    const std::vector<std::uint32_t>& t_values = {2, 4, 8},
    const std::vector<std::uint32_t>& u_values = {8, 4, 2, 1});

/// Instantiates a matrix point over an n-endpoint machine.
[[nodiscard]] std::unique_ptr<Topology> build_point(const TopologyPoint& point,
                                                    std::uint64_t n);

/// The command-line name of a matrix point, kept comma-list friendly:
/// "fattree", "torus3d", "nestghc-tT-uU" or "nesttree-tT-uU", with T and U
/// positive 32-bit integers and nothing else ("nestghc-t-1-u4" and
/// "nestghc-t2-u4junk" are rejected). Throws std::invalid_argument naming
/// the token.
[[nodiscard]] TopologyPoint parse_point_token(const std::string& token);

// ---------------------------------------------------------------- Table 1

struct DistanceRow {
  TopologyPoint point;
  double average = 0.0;
  std::uint32_t diameter = 0;
  bool exact = false;
  /// False when the point cannot be instantiated at this machine size
  /// (e.g. t = 8 when a global dimension is smaller than 8).
  bool valid = true;
};

struct DistanceAnalysisConfig {
  std::uint64_t num_nodes = 131072;
  /// Sampled ordered pairs per topology (exact when it exceeds E*(E-1)).
  std::uint64_t sample_pairs = 2'000'000;
  std::uint64_t seed = 42;
  std::uint32_t threads = 0;  // 0 = hardware concurrency
};

/// Routed average distance and diameter for every matrix point (hybrids
/// first, then the references) — the data behind Table 1.
[[nodiscard]] std::vector<DistanceRow> run_distance_analysis(
    const DistanceAnalysisConfig& config);

// ---------------------------------------------------------------- Table 2

struct OverheadRow {
  TopologyPoint point;
  OverheadEstimate estimate;
};

/// Upper-tier switch counts and cost/power overheads for every matrix
/// point — the data behind Table 2. Pure arithmetic via the tier shape
/// rules; no graph is materialised, so full scale is instant.
[[nodiscard]] std::vector<OverheadRow> run_overhead_analysis(
    std::uint64_t num_nodes);

// ------------------------------------------------------------- Figures 4-5

struct SimulationCell {
  TopologyPoint point;
  std::string workload;
  SimResult result;
  /// Execution time normalised to the reference fat-tree on the same
  /// workload (the convention of Figs. 4-5).
  double normalized_time = 0.0;
  /// False when the point cannot be instantiated at this machine size.
  bool valid = true;
};

struct SimulationSweepConfig {
  std::uint64_t num_nodes = 4096;  // tasks == nodes
  std::vector<std::string> workloads;
  std::vector<std::uint32_t> t_values = {2, 4, 8};
  std::vector<std::uint32_t> u_values = {8, 4, 2, 1};
  std::uint64_t seed = 42;
  /// Cells run concurrently on this many threads (0 = hardware
  /// concurrency); each cell's engine is serial.
  std::uint32_t threads = 0;
  EngineOptions engine;
  bool verbose = false;  // log each finished cell
};

/// Simulates every workload on every matrix point. Each topology point is
/// built once (in parallel) and shared read-only by every workload cell at
/// that point; the independent cells then run on a thread pool.
[[nodiscard]] std::vector<SimulationCell> run_simulation_sweep(
    const SimulationSweepConfig& config);

}  // namespace nestflow
