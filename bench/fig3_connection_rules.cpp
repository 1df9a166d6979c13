// Regenerates Figure 3: the four uplink-density connection rules. For each
// u in {1, 2, 4, 8} it reports, over one t=4 subtorus, which local
// positions carry uplinks and the distribution of hops from every node to
// its designated uplinked node — verifying the hop bounds the paper states
// (u=1: 0; u=2: one hop in X; u=4: at most one hop; u=8: up to three hops
// to the 2x2x2 subgrid root).
#include <cstdio>

#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("fig3_connection_rules",
                "Figure 3: uplink connection rules on a t = 4 subtorus");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;
  std::printf("== Figure 3: uplink connection rules (t = 4 subtorus) ==\n\n");
  for (const std::uint32_t u : {1u, 2u, 4u, 8u}) {
    const auto topology = make_nested(512, 4, u, UpperTierKind::kFattree);
    Histogram hops_to_uplink(8);
    std::uint32_t uplinked = 0;
    Path path;
    for (std::uint32_t e = 0; e < topology->num_endpoints(); ++e) {
      uplinked += topology->is_uplinked(e);
      topology->route(e, topology->designated_uplink(e), path);
      hops_to_uplink.add(path.hops());
    }
    std::printf("u = %u: %u/%u nodes uplinked (density 1:%u)\n", u, uplinked,
                topology->num_endpoints(), u);
    std::printf("  hops to designated uplink: mean %.2f, max %zu;"
                " distribution:",
                hops_to_uplink.mean(), hops_to_uplink.max_value());
    for (std::size_t h = 0; h <= hops_to_uplink.max_value(); ++h) {
      std::printf(" %zu-hop=%llu", h,
                  static_cast<unsigned long long>(hops_to_uplink.bin(h)));
    }
    std::printf("\n\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("fig3_connection_rules", run, argc, argv);
}
