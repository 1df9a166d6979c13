// Regenerates Figure 4: normalised execution time of the six heavy
// workloads (UnstructuredApp, UnstructuredHR, Bisection, AllReduce,
// n-Bodies, NearNeighbors) over the full topology matrix.
//
// The paper simulates 131,072 QFDBs; flow-level simulation of that scale is
// out of reach on a workstation, so this bench defaults to 1,024 nodes
// (--nodes raises it). Trends — torus losing heavily, hybrids needing
// u <= 2..4, t = 8 hurting, fat-tree vs GHC upper-tier differences — are
// scale-stable; exact ratios grow with machine size.
#include "figure_common.hpp"

#include "workloads/factory.hpp"

namespace {

int run(int argc, char** argv) {
  nestflow::benchtool::FigureSpec spec;
  spec.figure_name = "Figure 4 (heavy workloads)";
  spec.workloads = nestflow::heavy_workload_names();
  // n-Bodies builds N*N/2 flows: cap its machine size.
  spec.node_override["nbodies"] = 1024;
  return nestflow::benchtool::run_figure(spec, argc, argv);
}

}  // namespace

int main(int argc, char** argv) {
  return nestflow::run_cli_main("fig4_heavy", run, argc, argv);
}
