// Regenerates Table 2: upper-tier switch counts and estimated cost/power
// overheads versus the torus-only baseline, for the full (t, u) matrix and
// the reference fat-tree. Pure closed-form arithmetic — full scale is the
// default and instantaneous.
#include <cstdio>

#include "core/report.hpp"
#include "core/system_model.hpp"
#include "util/cli.hpp"

namespace {

struct PaperRow {
  const char* tu;
  unsigned sw_ghc, sw_tree;
  double cost_ghc, cost_tree, power_ghc, power_tree;
};
constexpr PaperRow kPaperTable2[] = {
    {"(*, 8)", 2048, 2048, 1.17, 1.17, 0.39, 0.39},
    {"(*, 4)", 3072, 3072, 1.76, 1.76, 0.59, 0.59},
    {"(*, 2)", 5120, 5120, 2.93, 2.93, 0.98, 0.98},
    {"(*, 1)", 8192, 9216, 4.69, 5.27, 1.56, 1.76},
};

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("table2_cost",
                "Table 2: switch counts and cost/power overhead estimates");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "131072");
  cli.add_option("csv", "write raw rows to this CSV path", "");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const std::uint64_t nodes = cli.get_uint("nodes");
  ExaNestSystem system;
  system.num_qfdbs = nodes;
  std::printf("== Table 2: switches and cost/power overhead ==\n");
  std::printf("system: %s\n\n", system.to_string().c_str());

  const auto rows = run_overhead_analysis(nodes);
  const auto table = format_overhead_table(rows);
  std::fputs(table.to_text().c_str(), stdout);

  if (nodes == 131072) {
    std::printf("\n-- paper's Table 2 for reference (identical for every t) "
                "--\n");
    for (const auto& row : kPaperTable2) {
      std::printf("%-8s switches %4u/%4u  cost %.2f%%/%.2f%%  power "
                  "%.2f%%/%.2f%%\n",
                  row.tu, row.sw_ghc, row.sw_tree, row.cost_ghc,
                  row.cost_tree, row.power_ghc, row.power_tree);
    }
    std::printf("Fattree: 9216 switches, 5.27%% cost, 1.76%% power\n");
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
  return nestflow::run_cli_main("table2_cost", run, argc, argv);
}
