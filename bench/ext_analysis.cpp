// Extension: static routing analyses over the paper's topology matrix —
//  * Dally-Seitz channel-dependency deadlock check per configuration
//    (which hybrid configurations would need virtual channels?), and
//  * uniform-traffic saturation-throughput bounds (the static root of the
//    Figure 4 gaps).
#include <cstdio>

#include "topo/deadlock.hpp"
#include "topo/factory.hpp"
#include "topo/throughput.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("ext_analysis",
                "deadlock and saturation-throughput analyses");
  cli.add_option("nodes", "machine size in QFDBs (power of two)", "512");
  cli.add_option("pairs", "max routed pairs per analysis", "300000");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  const auto nodes = cli.get_uint("nodes");
  const auto pairs = cli.get_positive_uint("pairs");

  std::printf("== Extension: static routing analyses (N = %llu) ==\n\n",
              static_cast<unsigned long long>(nodes));

  Table table({"topology", "CDG", "dependencies", "throughput",
               "bottleneck", "mean hops"});
  const char* specs_torus_fattree[] = {"torus", "fattree"};
  std::vector<std::unique_ptr<Topology>> topologies;
  for (const char* key : specs_torus_fattree) {
    topologies.push_back(std::string(key) == "torus"
                             ? make_reference_torus(nodes)
                             : make_reference_fattree(nodes));
  }
  for (const std::uint32_t t : {2u, 4u}) {
    for (const std::uint32_t u : {1u, 2u, 4u, 8u}) {
      topologies.push_back(make_nested(nodes, t, u, UpperTierKind::kGhc));
      topologies.push_back(make_nested(nodes, t, u, UpperTierKind::kFattree));
    }
  }

  for (const auto& topology : topologies) {
    const auto deadlock = analyze_deadlock(*topology, pairs);
    const auto throughput = uniform_throughput_bound(*topology, pairs);
    table.add_row({topology->name(),
                   deadlock.acyclic ? "acyclic" : "CYCLIC",
                   std::to_string(deadlock.dependencies),
                   format_fixed(throughput.normalized, 3),
                   std::string(to_string(throughput.bottleneck_class)),
                   format_fixed(throughput.mean_path_length, 2)});
  }
  std::fputs(table.to_text().c_str(), stdout);
  std::printf(
      "\nReadings: wrapped (sub)tori with >= 3 nodes per dimension are\n"
      "CYCLIC under dimension-order routing (virtual channels needed in\n"
      "real hardware). At t=2, density matters: u=1/u=2/u=8 keep to-uplink\n"
      "and from-uplink hops on direction-disjoint channels (acyclic), while\n"
      "the u=4 opposite-vertices rule mixes them and is deadlock-prone —\n"
      "a hardware caveat for the paper's cost sweet spot that flow-level\n"
      "simulation alone cannot see. Throughput bounds show why the\n"
      "fat-tree and dense hybrids dominate heavy uniform traffic.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("ext_analysis", run, argc, argv);
}
