// Regenerates Figure 5: normalised execution time of the five light
// workloads (UnstructuredMgnt, MapReduce, Reduce, Flood, Sweep3D) over the
// full topology matrix. See fig4_heavy.cpp for scale notes.
#include "figure_common.hpp"

#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  nestflow::benchtool::FigureSpec spec;
  spec.figure_name = "Figure 5 (light workloads)";
  spec.workloads = nestflow::light_workload_names();
  // MapReduce's all-to-all shuffle builds ~N^2 flows: cap its machine size.
  spec.node_override["mapreduce"] = 512;
  return nestflow::benchtool::run_figure(spec, argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("fig5_light", run, argc, argv);
}
