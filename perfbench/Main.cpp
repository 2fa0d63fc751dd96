//===- perfbench/Main.cpp - Pipeline benchmark entry point ------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <fullstack|outline-k1|daemon-edit> --seed <n>
///           --seconds <s> --trace <0|1> [--scale <x>]
///
/// Runs one workload in this process (at most 4 worker threads), prints a
/// human-readable summary and, as the last line of stdout, one JSON object
/// with the operation counts and the metrics: the end-to-end ones with
/// --trace 0, the per-layer ones with --trace 1. Scratch files go under
/// .bench_work/ in the current directory.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fullstack|outline-k1|"
               "daemon-edit> --seed <n> --seconds <s> --trace <0|1> "
               "[--scale <x>]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *K = argv[I], *V = argv[I + 1];
    if (!std::strcmp(K, "--workload"))
      Cfg.Workload = V;
    else if (!std::strcmp(K, "--seed"))
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (!std::strcmp(K, "--seconds"))
      Cfg.Seconds = std::atof(V);
    else if (!std::strcmp(K, "--trace"))
      Cfg.Traced = std::atoi(V) != 0;
    else if (!std::strcmp(K, "--scale"))
      Cfg.Scale = std::atof(V);
    else
      return usage();
  }
  if (argc % 2 == 0 || Cfg.Seconds <= 0 ||
      (Cfg.Workload != "fullstack" && Cfg.Workload != "outline-k1" &&
       Cfg.Workload != "daemon-edit"))
    return usage();

  namespace fs = std::filesystem;
  Cfg.WorkDir = ".bench_work/run-" + std::to_string(::getpid());
  std::error_code EC;
  fs::create_directories(Cfg.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "cannot create %s: %s\n", Cfg.WorkDir.c_str(),
                 EC.message().c_str());
    return 1;
  }
  if (Cfg.Traced)
    Cfg.TracePath = ".bench_work/trace-" + Cfg.Workload + "-seed" +
                    std::to_string(Cfg.Seed) + ".json";

  Ops O;
  Metrics Out;
  int Rc = Cfg.Workload == "daemon-edit" ? runDaemon(Cfg, O, Out)
                                         : runOneShot(Cfg, O, Out);
  fs::remove_all(Cfg.WorkDir, EC);
  if (Rc != 0) {
    O.print();
    std::fprintf(stderr, "perfbench: workload %s aborted\n",
                 Cfg.Workload.c_str());
    return Rc;
  }
  Out.printResult(O);
  return 0;
}
