// Regenerates Figure 2's four example topologies, validates their wiring
// and prints a component census plus distance profile for each:
//   (a) Torus 4x4x2            (b) NestGHC(t=2,u=8) over a 4-ary 2-GHC
//   (c) 4-ary 2-tree           (d) NestTree(t=2,u=8) over a 4-ary 2-tree
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "graph/distance_metrics.hpp"
#include "graph/validation.hpp"
#include "topo/census.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"

namespace {

using namespace nestflow;

std::unique_ptr<Topology> make_example(char which) {
  switch (which) {
    case 'a': return std::make_unique<TorusTopology>(
        std::vector<std::uint32_t>{4, 4, 2});
    case 'c': return std::make_unique<FatTreeTopology>(
        std::vector<std::uint32_t>{4, 4});
    case 'b': {
      // 16 uplinked nodes under u=8 -> 128 QFDBs in 2x2x2 subtori.
      NestedConfig config;
      config.global_dims = {8, 4, 4};
      config.t = 2;
      config.u = 8;
      config.upper = UpperTierKind::kGhc;
      config.upper_dims = {4, 4};
      return std::make_unique<NestedTopology>(config);
    }
    case 'd': {
      NestedConfig config;
      config.global_dims = {8, 4, 4};
      config.t = 2;
      config.u = 8;
      config.upper = UpperTierKind::kFattree;
      config.upper_arities = {4, 4};
      return std::make_unique<NestedTopology>(config);
    }
    default: throw std::logic_error("bad example id");
  }
}

int run(int argc, char** argv) {
  CliParser cli("fig2_topology_census",
                "Figure 2: census of the four example topologies");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  std::printf("== Figure 2: the four example topologies ==\n\n");
  for (const char which : {'a', 'b', 'c', 'd'}) {
    const auto topology = make_example(which);
    const auto report = validate_graph(topology->graph());
    const auto census = take_census(topology->graph());
    const auto distances = auto_distance_report(topology->graph(), 1);
    std::printf("(%c) %s\n", which, topology->name().c_str());
    std::printf("    wiring: %s\n",
                report.ok() ? "valid" : report.to_string().c_str());
    std::printf("    %s\n", census.to_string().c_str());
    std::printf("    avg distance %.2f, diameter %u\n\n", distances.average,
                distances.diameter);
    if (!report.ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("fig2_topology_census", run, argc, argv);
}
