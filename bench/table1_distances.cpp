// Regenerates Table 1: routed average distance and diameter of NestGHC and
// NestTree across the (t, u) matrix, plus the fat-tree and torus references.
//
// Defaults to the paper's full scale (131,072 QFDBs) with sampled pairs;
// --nodes scales down, --pairs controls sampling accuracy. Paper values are
// printed alongside for direct comparison at full scale.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/report.hpp"
#include "util/cli.hpp"

namespace {

// Table 1 of the paper, in the same (t ascending, u descending) order.
struct PaperRow {
  const char* tu;
  double avg_ghc, avg_tree;
  unsigned diam_ghc, diam_tree;
};
constexpr PaperRow kPaperTable1[] = {
    {"(2, 8)", 8.75, 8.88, 12, 12}, {"(2, 4)", 7.31, 7.44, 8, 8},
    {"(2, 2)", 6.84, 6.97, 8, 8},   {"(2, 1)", 5.87, 5.98, 6, 6},
    {"(4, 8)", 8.69, 8.87, 12, 12}, {"(4, 4)", 7.31, 7.44, 8, 8},
    {"(4, 2)", 6.84, 6.97, 8, 8},   {"(4, 1)", 5.87, 5.98, 6, 6},
    {"(8, 8)", 8.72, 8.87, 12, 12}, {"(8, 4)", 7.32, 7.44, 11, 11},
    {"(8, 2)", 6.85, 6.97, 11, 11}, {"(8, 1)", 5.88, 5.99, 11, 11},
};

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("table1_distances",
                "Table 1: average distance and diameter of the topology "
                "matrix");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "131072");
  cli.add_option("pairs", "sampled (src,dst) pairs per topology", "1000000");
  cli.add_option("seed", "sampling seed", "42");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_option("csv", "write raw rows to this CSV path", "");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  DistanceAnalysisConfig config;
  config.num_nodes = cli.get_uint("nodes");
  config.sample_pairs = cli.get_positive_uint("pairs");
  config.seed = cli.get_uint("seed");
  config.threads = static_cast<std::uint32_t>(cli.get_uint("threads"));

  // As in the figure drivers: a size that builds no hybrid point has no
  // table to print.
  const auto matrix = paper_topology_matrix();
  if (std::none_of(matrix.begin(), matrix.end(), [&](const TopologyPoint& p) {
        try {
          return p.t != 0 && build_point(p, config.num_nodes) != nullptr;
        } catch (const std::invalid_argument&) {
          return false;
        }
      })) {
    throw CliError("nodes", "cannot build any NestGHC or NestTree point at "
                            "N = " + std::to_string(config.num_nodes));
  }
  std::printf("== Table 1: average distance / diameter (N = %llu, %llu "
              "sampled pairs) ==\n\n",
              static_cast<unsigned long long>(config.num_nodes),
              static_cast<unsigned long long>(config.sample_pairs));
  const auto rows = run_distance_analysis(config);
  const auto table = format_distance_table(rows);
  std::fputs(table.to_text().c_str(), stdout);

  if (config.num_nodes == 131072) {
    std::printf("\n-- paper's Table 1 for reference --\n");
    std::printf("%-8s %-8s %-9s %-8s %-9s\n", "(t, u)", "GHC", "Tree",
                "GHC-diam", "Tree-diam");
    for (const auto& row : kPaperTable1) {
      std::printf("%-8s %-8.2f %-9.2f %-8u %-9u\n", row.tu, row.avg_ghc,
                  row.avg_tree, row.diam_ghc, row.diam_tree);
    }
    std::printf("Fattree  5.94 (diameter 6) | Torus 40 (diameter 80)\n");
  }

  const auto csv = cli.get_string("csv");
  if (!csv.empty()) {
    table.save_csv(csv);
    std::printf("\nwrote %s\n", csv.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("table1_distances", run, argc, argv);
}
