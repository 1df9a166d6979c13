// Topology explorer: build any topology from a spec string and inspect it —
// component census, validation, distance profile, per-class cable counts,
// cost/power overhead versus a torus-only deployment, and (optionally) a
// sample route between two endpoints.
//
// Examples:
//   topology_explorer --spec nestghc:4096,4,2
//   topology_explorer --spec torus:16x16x16 --route 0:4095
//   topology_explorer --spec fattree:32,32,4 --pairs 200000
#include <charconv>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "core/cost_model.hpp"
#include "graph/distance_metrics.hpp"
#include "graph/validation.hpp"
#include "topo/census.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace nestflow;
  CliParser cli("topology_explorer", "inspect any nestflow topology");
  cli.add_option("spec", "topology spec (see topo/factory.hpp)",
                 "nestghc:4096,4,2");
  cli.add_option("pairs", "sampled pairs for the distance profile", "100000");
  cli.add_option("seed", "sampling seed", "42");
  cli.add_option("route", "print the route between 'src:dst'", "");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  const auto pairs = cli.get_positive_uint("pairs");
  const auto topology = make_topology(cli.get_string("spec"));
  // --route is checked before any work: "src:dst", each side a whole
  // endpoint id below num_endpoints().
  std::optional<std::pair<std::uint32_t, std::uint32_t>> route;
  if (const auto spec = cli.get_string("route"); !spec.empty()) {
    const auto bad = [&] {
      return CliError("route", "expected 'src:dst' with endpoint ids below " +
                                   std::to_string(topology->num_endpoints()) +
                                   ", got '" + spec + "'");
    };
    const auto endpoint = [&](std::string_view text) {
      std::uint32_t id = 0;
      const char* const last = text.data() + text.size();
      const auto [ptr, ec] = std::from_chars(text.data(), last, id);
      if (ec != std::errc() || ptr != last || id >= topology->num_endpoints()) {
        throw bad();
      }
      return id;
    };
    const auto colon = spec.find(':');
    if (colon == std::string::npos) throw bad();
    const std::string_view text = spec;
    route.emplace(endpoint(text.substr(0, colon)),
                  endpoint(text.substr(colon + 1)));
  }
  std::printf("%s\n", topology->name().c_str());

  const auto report = validate_graph(topology->graph());
  std::printf("wiring      : %s\n",
              report.ok() ? "valid" : report.to_string().c_str());

  const auto census = take_census(topology->graph());
  std::printf("census      : %s\n", census.to_string().c_str());

  const auto overhead =
      estimate_overhead(topology->num_endpoints(), census.switches);
  std::printf("overheads   : cost +%s, power +%s vs torus-only\n",
              format_percent(overhead.cost_increase, 2).c_str(),
              format_percent(overhead.power_increase, 2).c_str());

  const auto route_len = [&](std::uint32_t s, std::uint32_t d) {
    return topology->route_distance(s, d);
  };
  const auto distances = sampled_routed_report(
      topology->num_endpoints(), route_len, pairs, cli.get_uint("seed"),
      topology->adversarial_pairs());
  std::printf("distances   : average %.2f hops, diameter %u (%s)\n",
              distances.average, distances.diameter,
              distances.exact ? "exact" : "sampled");
  std::printf("hop profile :");
  for (std::size_t h = 0; h <= distances.histogram.max_value(); ++h) {
    if (distances.histogram.bin(h) == 0) continue;
    std::printf(" %zu:%0.1f%%", h,
                100.0 * static_cast<double>(distances.histogram.bin(h)) /
                    static_cast<double>(distances.histogram.total()));
  }
  std::printf("\n");

  if (route) {
    const auto [src, dst] = *route;
    Path path;
    topology->route(src, dst, path);
    std::printf("route %u -> %u (%u hops):\n  %u", src, dst, path.hops(), src);
    for (const LinkId l : path.links) {
      const auto& link = topology->graph().link(l);
      std::printf(" -[%s]-> %u", std::string(to_string(link.link_class)).c_str(),
                  link.dst);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("topology_explorer", run, argc, argv);
}
