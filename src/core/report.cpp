#include "core/report.hpp"

#include <map>
#include <stdexcept>

namespace nestflow {

namespace {

using ConfigKey = std::pair<std::uint32_t, std::uint32_t>;  // (t, u)

/// The paper lists configurations as (2,8), (2,4), (2,2), (2,1), (4,8), ...
/// i.e. t ascending, u descending.
struct PaperOrder {
  bool operator()(const ConfigKey& a, const ConfigKey& b) const noexcept {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  }
};

std::string tu_label(const ConfigKey& key) {
  // Appended piecewise: gcc 12's -Wrestrict misfires on the inlined
  // "(" + std::string&& concatenation.
  std::string label = "(";
  label += std::to_string(key.first);
  label += ", ";
  label += std::to_string(key.second);
  label += ')';
  return label;
}

}  // namespace

Table format_distance_table(const std::vector<DistanceRow>& rows) {
  std::map<ConfigKey, std::pair<const DistanceRow*, const DistanceRow*>,
           PaperOrder>
      hybrid;  // (t,u) -> (NestGHC, NestTree)
  const DistanceRow* fattree = nullptr;
  const DistanceRow* torus = nullptr;
  for (const auto& row : rows) {
    if (row.point.label == "NestGHC") {
      hybrid[{row.point.t, row.point.u}].first = row.valid ? &row : nullptr;
    } else if (row.point.label == "NestTree") {
      hybrid[{row.point.t, row.point.u}].second = row.valid ? &row : nullptr;
    } else if (row.point.label == "Fattree") {
      fattree = row.valid ? &row : nullptr;
    } else if (row.point.label == "Torus3D") {
      torus = row.valid ? &row : nullptr;
    }
  }

  Table table({"(t, u)", "AvgDist NestGHC", "AvgDist NestTree",
               "Diameter NestGHC", "Diameter NestTree"});
  for (const auto& [key, pair] : hybrid) {
    const auto* ghc = pair.first;
    const auto* tree = pair.second;
    table.add_row({tu_label(key),
                   ghc ? format_fixed(ghc->average, 2) : "-",
                   tree ? format_fixed(tree->average, 2) : "-",
                   ghc ? std::to_string(ghc->diameter) : "-",
                   tree ? std::to_string(tree->diameter) : "-"});
  }
  if (fattree != nullptr) {
    table.add_row({"Fattree", format_fixed(fattree->average, 2), "-",
                   std::to_string(fattree->diameter), "-"});
  }
  if (torus != nullptr) {
    table.add_row({"Torus3D", format_fixed(torus->average, 2), "-",
                   std::to_string(torus->diameter), "-"});
  }
  return table;
}

Table format_overhead_table(const std::vector<OverheadRow>& rows) {
  std::map<ConfigKey, std::pair<const OverheadRow*, const OverheadRow*>,
           PaperOrder>
      hybrid;
  const OverheadRow* fattree = nullptr;
  for (const auto& row : rows) {
    if (row.point.label == "NestGHC") {
      hybrid[{row.point.t, row.point.u}].first = &row;
    } else if (row.point.label == "NestTree") {
      hybrid[{row.point.t, row.point.u}].second = &row;
    } else if (row.point.label == "Fattree") {
      fattree = &row;
    }
  }

  Table table({"(t, u)", "Switches NestGHC", "Switches NestTree",
               "Cost NestGHC", "Cost NestTree", "Power NestGHC",
               "Power NestTree"});
  for (const auto& [key, pair] : hybrid) {
    const auto* ghc = pair.first;
    const auto* tree = pair.second;
    if (ghc == nullptr || tree == nullptr) {
      throw std::invalid_argument("format_overhead_table: incomplete matrix");
    }
    table.add_row({tu_label(key),
                   std::to_string(ghc->estimate.num_switches),
                   std::to_string(tree->estimate.num_switches),
                   format_percent(ghc->estimate.cost_increase, 2),
                   format_percent(tree->estimate.cost_increase, 2),
                   format_percent(ghc->estimate.power_increase, 2),
                   format_percent(tree->estimate.power_increase, 2)});
  }
  if (fattree != nullptr) {
    table.add_row({"Fattree", std::to_string(fattree->estimate.num_switches),
                   "-", format_percent(fattree->estimate.cost_increase, 2),
                   "-", format_percent(fattree->estimate.power_increase, 2),
                   "-"});
  }
  return table;
}

Table format_figure_panel(const std::vector<SimulationCell>& cells,
                          const std::string& workload) {
  // Missing / skipped cells render as "-" (normalised times are never 0
  // for valid cells).
  std::map<ConfigKey, std::pair<double, double>, PaperOrder> hybrid;
  double fattree = 0.0;
  double torus = 0.0;
  for (const auto& cell : cells) {
    if (cell.workload != workload) continue;
    const double value = cell.valid ? cell.normalized_time : 0.0;
    if (cell.point.label == "NestGHC") {
      hybrid[{cell.point.t, cell.point.u}].first = value;
    } else if (cell.point.label == "NestTree") {
      hybrid[{cell.point.t, cell.point.u}].second = value;
    } else if (cell.point.label == "Fattree") {
      fattree = value;
    } else if (cell.point.label == "Torus3D") {
      torus = value;
    }
  }
  if (hybrid.empty()) {
    throw std::invalid_argument("format_figure_panel: no cells for workload " +
                                workload);
  }

  const auto fmt = [](double v) {
    return v > 0.0 ? format_fixed(v, 3) : std::string("-");
  };
  Table table({"(t, u)", "NestGHC", "NestTree", "Fattree", "Torus3D"});
  for (const auto& [key, pair] : hybrid) {
    table.add_row({tu_label(key), fmt(pair.first), fmt(pair.second),
                   fmt(fattree), fmt(torus)});
  }
  return table;
}

Table format_cells_csv(const std::vector<SimulationCell>& cells) {
  Table table({"workload", "topology", "t", "u", "makespan_s",
               "normalized_time", "events", "solver_rounds",
               "max_link_utilization", "avg_active_flows", "flows"});
  for (const auto& cell : cells) {
    if (!cell.valid) continue;
    table.add_row({cell.workload, cell.point.label,
                   std::to_string(cell.point.t), std::to_string(cell.point.u),
                   format_fixed(cell.result.makespan, 9),
                   format_fixed(cell.normalized_time, 4),
                   std::to_string(cell.result.events),
                   std::to_string(cell.result.solver_rounds),
                   format_fixed(cell.result.max_link_utilization, 4),
                   format_fixed(cell.result.avg_active_flows, 1),
                   std::to_string(cell.result.num_flows)});
  }
  return table;
}

}  // namespace nestflow
