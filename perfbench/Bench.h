//===- perfbench/Bench.h - Shared benchmark plumbing ------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operation accounting, metric output, order statistics, the benchmark's
/// own ELF section reader, and the output checks shared by the workloads.
/// Nothing here calls into the library's OAT parser: sizes and image
/// identity are read from the serialized bytes independently.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PERFBENCH_BENCH_H
#define CALIBRO_PERFBENCH_BENCH_H

#include "Trace.h"

#include "core/Calibro.h"
#include "oat/OatFile.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  /// Corpus scale; <= 0 selects the workload's default.
  double Scale = 0;
  /// Scratch directory for this run (images, daemon cache); removed at exit.
  std::string WorkDir;
  /// Where a traced run writes its Chrome trace.
  std::string TracePath;
};

/// Attempted/failed counts per operation kind. A failed operation is
/// printed to stderr when it happens and is never skipped.
class Ops {
public:
  void ok(const std::string &Kind) { add(Kind, true, {}); }
  void fail(const std::string &Kind, const std::string &What) {
    add(Kind, false, What);
  }
  /// Counts one check that passed when \p Pass is set.
  void check(const std::string &Kind, bool Pass, const std::string &What) {
    add(Kind, Pass, What);
  }
  uint64_t attempted() const;
  uint64_t failed() const;
  void print() const;

private:
  void add(const std::string &Kind, bool Pass, const std::string &What);

  mutable std::mutex M;
  std::map<std::string, std::pair<uint64_t, uint64_t>> ByKind;
};

/// Metrics of one run, printed in insertion order.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, {Value, Unit}});
  }
  /// Prints the final result line: {"correct", "attempted", "failed",
  /// "metrics"}.
  void printResult(const Ops &O) const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Rows;
};

double median(std::vector<double> V);
/// Linear-interpolated quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);

/// .text and file sizes read from an ELF64 image's section headers.
struct ElfSizes {
  std::string Error; ///< Empty when the image parsed.
  uint64_t TextBytes = 0;
  uint64_t FileBytes = 0;
  /// One past the last byte any section or the header table covers; a
  /// well-formed image ends exactly there.
  uint64_t Extent = 0;
};
ElfSizes readElfSizes(const std::vector<uint8_t> &Bytes);

/// 128-bit content hash of a byte image (two independent FNV-1a lanes).
struct ImageHash {
  uint64_t A = 0, B = 0;
  bool operator==(const ImageHash &O) const { return A == O.A && B == O.B; }
};
ImageHash hashImage(const std::vector<uint8_t> &Bytes);

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes);
bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes);

/// Seeds of the two driver scripts. The profile-collection script is fixed,
/// so every seed builds the same images (a per-seed profile moved the
/// layout, and with it startup_pages, by 4% across seeds); the held-out
/// script that measures the images follows the workload seed.
uint64_t profileScriptSeed();
uint64_t measureScriptSeed(uint64_t Seed);
inline constexpr std::size_t ProfileScriptLength = 400;
inline constexpr std::size_t MeasureScriptLength = 800;

/// The behaviour of one scripted invocation.
struct InvocationResult {
  calibro::sim::Outcome What = calibro::sim::Outcome::Ok;
  int64_t ReturnValue = 0;
  uint64_t TraceHash = 0;
};

/// A held-out script run over one image.
struct ScriptRun {
  std::vector<InvocationResult> Results;
  uint64_t Cycles = 0, Insns = 0, ICacheMisses = 0, OutlinedCalls = 0;
  std::size_t StartupPages = 0; ///< Distinct 4 KiB .text pages touched.
  calibro::profile::Profile Executed; ///< Filled when profiling was asked.
};

/// Runs \p Script on \p Oat with 4 KiB residency pages, counting each
/// invocation as a "sim_invocation" operation. Fills Executed when
/// \p Profile is set.
ScriptRun runScript(const calibro::oat::OatFile &Oat,
                    const std::vector<calibro::workload::Invocation> &Script,
                    bool Profile, Ops &O, Trace &T, int App,
                    const std::string &Label);

/// Sums over the images a run checks.
struct OutputTotals {
  uint64_t TextBytes = 0, OatBytes = 0, Cycles = 0, Pages = 0;
  uint64_t SimInsns = 0, SimMisses = 0, SimOutlined = 0;

  /// text_bytes, oat_bytes, run_cycles and startup_pages.
  void setEndToEnd(Metrics &Out) const;
  /// sim.insns, sim.icache_misses and sim.outlined_calls.
  void setSim(Metrics &Out) const;
};

/// Options of the reference build every image is checked against: no CTO,
/// LTBO, GC, merge or layout.
calibro::core::CalibroOptions baselineOptions(uint32_t Threads);

/// Builds \p App with baselineOptions, counted as a "build" operation.
std::optional<calibro::oat::OatFile> buildBaseline(const calibro::dex::App &App,
                                                   const std::string &AppName,
                                                   uint32_t Threads, Ops &O);

/// Checks one output image against its app's baseline: static verifier,
/// the benchmark's own ELF reading of the serialized \p Bytes (written to
/// and read back from \p Path), the held-out script's outcome/return/trace
/// hash per invocation on both images, a strictly smaller .text, and GC
/// soundness (every method the baseline script executed still resolves).
/// Adds the sizes read and the image's script run to \p Tot.
void checkImage(const std::string &AppName, const calibro::oat::OatFile &Oat,
                const std::vector<uint8_t> &Bytes, const std::string &Path,
                const calibro::oat::OatFile &Baseline,
                const std::vector<calibro::workload::Invocation> &Script,
                Ops &O, Trace &T, int App, OutputTotals &Tot);

/// Peak resident set (VmHWM) of this process so far.
uint64_t peakRssBytes();

/// User plus system CPU time of this process (all threads) so far. Unlike
/// wall time it leaves out the time a virtual CPU waits for the host.
double cpuSeconds();

int runOneShot(const RunConfig &Cfg, Ops &O, Metrics &Out);
int runDaemon(const RunConfig &Cfg, Ops &O, Metrics &Out);

} // namespace perfbench

#endif // CALIBRO_PERFBENCH_BENCH_H
