// Trace replay: simulate a user-supplied flow trace instead of a synthetic
// workload — the bridge between nestflow and real application traces.
//
// Trace format (text, one record per line, '#' comments):
//   flow <id> <src> <dst> <bytes>
//   dep  <before-id> <after-id>
// Flow ids are arbitrary non-negative integers, unique per trace; endpoint
// ids are non-negative and below 2^32. A malformed trace exits with status
// 2 and a "trace line N:" message.
//
// With no --trace argument a demonstration trace (a tiny fork-join
// pipeline) is generated, written to a temp file, and replayed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "flowsim/engine.hpp"
#include "flowsim/metrics.hpp"
#include "topo/factory.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"

namespace {

using namespace nestflow;

/// Reads the next field of a record into `value`, which it must fill
/// exactly: std::from_chars takes no sign for an unsigned type and fails on
/// a value out of range, where operator>> would wrap "-3" modulo 2^64 and
/// the caller's narrowing would then wrap it again.
template <typename T>
bool read_field(std::istream& fields, T& value) {
  std::string token;
  if (!(fields >> token)) return false;
  const char* const last = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  return ec == std::errc() && ptr == last;
}

/// Parses the trace format above. Throws std::runtime_error with a line
/// number on malformed input.
TrafficProgram load_trace(std::istream& in) {
  TrafficProgram program;
  std::map<std::uint64_t, FlowIndex> id_map;
  std::string line;
  std::size_t line_number = 0;
  const auto fail = [&](const std::string& message) {
    throw std::runtime_error("trace line " + std::to_string(line_number) +
                             ": " + message);
  };
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind)) continue;  // blank line
    std::string extra;
    if (kind == "flow") {
      std::uint64_t id = 0;
      std::uint32_t src = 0, dst = 0;
      double bytes = 0.0;
      if (!read_field(fields, id) || !read_field(fields, src) ||
          !read_field(fields, dst) || !read_field(fields, bytes) ||
          !std::isfinite(bytes) || bytes < 0.0) {
        fail("bad flow record");
      }
      if (fields >> extra) fail("trailing field '" + extra + "'");
      if (id_map.contains(id)) fail("duplicate flow id");
      id_map[id] = program.add_flow(src, dst, bytes);
    } else if (kind == "dep") {
      std::uint64_t before = 0, after = 0;
      if (!read_field(fields, before) || !read_field(fields, after)) {
        fail("bad dep record");
      }
      if (fields >> extra) fail("trailing field '" + extra + "'");
      if (!id_map.contains(before) || !id_map.contains(after)) {
        fail("dep references unknown flow (deps must follow their flows)");
      }
      program.add_dependency(id_map[before], id_map[after]);
    } else {
      fail("unknown record kind: " + kind);
    }
  }
  return program;
}

void write_demo_trace(const std::string& path) {
  std::ofstream out(path);
  out << "# demo: scatter from node 0, compute-exchange, gather back\n";
  for (int i = 1; i <= 4; ++i) {
    out << "flow " << i << " 0 " << i * 3 << " 1048576\n";  // scatter
  }
  for (int i = 1; i <= 4; ++i) {  // ring exchange, gated on the scatter
    out << "flow " << 10 + i << " " << i * 3 << " " << (i % 4 + 1) * 3
        << " 524288\n";
    out << "dep " << i << " " << 10 + i << "\n";
  }
  for (int i = 1; i <= 4; ++i) {  // gather, gated on the exchange
    out << "flow " << 20 + i << " " << i * 3 << " 0 2097152\n";
    out << "dep " << 10 + i << " " << 20 + i << "\n";
  }
}

int run(int argc, char** argv) {
  CliParser cli("trace_replay", "simulate a flow trace on any topology");
  cli.add_option("spec", "topology spec", "nesttree:128,2,2");
  cli.add_option("trace", "trace file path (empty = built-in demo)", "");
  cli.add_option("latency", "per-hop latency in seconds", "0");
  if (!cli.parse(argc, argv)) return cli.error().empty() ? 0 : 2;

  EngineOptions options;
  options.hop_latency_seconds = cli.get_non_negative_double("latency");
  options.record_flow_times = true;

  std::string trace_path = cli.get_string("trace");
  if (trace_path.empty()) {
    trace_path = "/tmp/nestflow_demo_trace.txt";
    write_demo_trace(trace_path);
    std::printf("no --trace given; wrote demo trace to %s\n", trace_path.c_str());
  }

  std::ifstream in(trace_path);
  if (!in) throw std::runtime_error("cannot open trace: " + trace_path);
  const TrafficProgram program = load_trace(in);

  const auto topology = make_topology(cli.get_string("spec"));
  std::printf("replaying %u flows (%s) on %s\n", program.num_data_flows(),
              format_bytes(program.total_bytes()).c_str(),
              topology->name().c_str());

  FlowEngine engine(*topology, options);
  const auto result = engine.run(program);

  std::printf("completion  : %s over %llu events\n",
              format_time(result.makespan).c_str(),
              static_cast<unsigned long long>(result.events));
  std::printf("bottleneck  : %s utilisation\n",
              format_percent(result.max_link_utilization, 1).c_str());
  const double critical = critical_path_seconds(*topology, program);
  std::printf("critical path bound: %s (%.0f%% of actual)\n",
              format_time(critical).c_str(),
              100.0 * critical / result.makespan);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("trace_replay", run, argc, argv);
}
