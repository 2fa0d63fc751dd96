//===- perfbench/Bench.cpp - Shared benchmark plumbing ----------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Memory.h"
#include "verify/OatVerifier.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>

using namespace calibro;

namespace perfbench {

void Ops::add(const std::string &Kind, bool Pass, const std::string &What) {
  std::lock_guard<std::mutex> Lock(M);
  auto &[Attempted, Failed] = ByKind[Kind];
  ++Attempted;
  if (!Pass) {
    ++Failed;
    std::fprintf(stderr, "FAILED %s: %s\n", Kind.c_str(), What.c_str());
  }
}

uint64_t Ops::attempted() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t N = 0;
  for (const auto &[K, V] : ByKind)
    N += V.first;
  return N;
}

uint64_t Ops::failed() const {
  std::lock_guard<std::mutex> Lock(M);
  uint64_t N = 0;
  for (const auto &[K, V] : ByKind)
    N += V.second;
  return N;
}

void Ops::print() const {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[K, V] : ByKind)
    std::printf("ops %-22s attempted %8" PRIu64 "  failed %" PRIu64 "\n",
                K.c_str(), V.first, V.second);
}

void Metrics::printResult(const Ops &O) const {
  for (const auto &[Name, VU] : Rows)
    std::printf("metric %-28s %.9g %s\n", Name.c_str(), VU.first,
                VU.second.c_str());
  O.print();
  const uint64_t Failed = O.failed();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              Failed == 0 ? "true" : "false", O.attempted(), Failed);
  bool First = true;
  for (const auto &[Name, VU] : Rows) {
    double V = std::isfinite(VU.first) ? VU.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

namespace {

uint64_t le(const std::vector<uint8_t> &B, std::size_t Off, unsigned N) {
  uint64_t V = 0;
  for (unsigned I = 0; I < N; ++I)
    V |= static_cast<uint64_t>(B[Off + I]) << (8 * I);
  return V;
}

} // namespace

ElfSizes readElfSizes(const std::vector<uint8_t> &B) {
  ElfSizes S;
  S.FileBytes = B.size();
  if (B.size() < 64 || B[0] != 0x7f || B[1] != 'E' || B[2] != 'L' ||
      B[3] != 'F' || B[4] != 2 || B[5] != 1) {
    S.Error = "not a little-endian ELF64 image";
    return S;
  }
  const uint64_t ShOff = le(B, 0x28, 8);
  const uint64_t ShEntSize = le(B, 0x3a, 2);
  const uint64_t ShNum = le(B, 0x3c, 2);
  const uint64_t ShStrNdx = le(B, 0x3e, 2);
  if (ShEntSize != 64 || ShNum == 0 || ShStrNdx >= ShNum ||
      ShOff > B.size() || ShNum * 64 > B.size() - ShOff) {
    S.Error = "section header table out of bounds";
    return S;
  }
  auto Hdr = [&](uint64_t I) { return ShOff + I * 64; };
  const uint64_t StrOff = le(B, Hdr(ShStrNdx) + 0x18, 8);
  const uint64_t StrSize = le(B, Hdr(ShStrNdx) + 0x20, 8);
  if (StrOff > B.size() || StrSize > B.size() - StrOff) {
    S.Error = ".shstrtab out of bounds";
    return S;
  }
  S.Extent = ShOff + ShNum * 64;
  bool SawText = false;
  for (uint64_t I = 1; I < ShNum; ++I) {
    const uint64_t NameOff = le(B, Hdr(I), 4);
    const uint64_t Type = le(B, Hdr(I) + 4, 4);
    const uint64_t Off = le(B, Hdr(I) + 0x18, 8);
    const uint64_t Size = le(B, Hdr(I) + 0x20, 8);
    if (Type != 8 /*SHT_NOBITS*/) {
      if (Off > B.size() || Size > B.size() - Off) {
        S.Error = "section payload out of bounds";
        return S;
      }
      S.Extent = std::max(S.Extent, Off + Size);
    }
    if (NameOff >= StrSize)
      continue;
    const char *Name = reinterpret_cast<const char *>(&B[StrOff + NameOff]);
    const std::size_t MaxLen = StrSize - NameOff;
    if (strnlen(Name, MaxLen) < MaxLen && std::strcmp(Name, ".text") == 0) {
      S.TextBytes = Size;
      SawText = true;
    }
  }
  if (!SawText)
    S.Error = "no .text section";
  return S;
}

ImageHash hashImage(const std::vector<uint8_t> &Bytes) {
  ImageHash H{0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL ^ Bytes.size()};
  for (uint8_t C : Bytes) {
    H.A = (H.A ^ C) * 0x100000001b3ULL;
    H.B = (H.B ^ (C + 0x5bu)) * 0x100000001b3ULL;
  }
  return H;
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  F.write(reinterpret_cast<const char *>(Bytes.data()),
          static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(F);
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Bytes) {
  std::ifstream F(Path, std::ios::binary | std::ios::ate);
  if (!F)
    return false;
  Bytes.resize(static_cast<std::size_t>(F.tellg()));
  F.seekg(0);
  F.read(reinterpret_cast<char *>(Bytes.data()),
         static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(F);
}

uint64_t profileScriptSeed() { return 0x5eed01; }
uint64_t measureScriptSeed(uint64_t Seed) { return Seed * 2 + 0x5eed02; }

ScriptRun runScript(const oat::OatFile &Oat,
                    const std::vector<workload::Invocation> &Script,
                    bool Profile, Ops &O, Trace &T, int App,
                    const std::string &Label) {
  sim::SimOptions SO;
  SO.PageShift = 12;
  SO.CollectProfile = Profile;
  sim::Simulator Sim(Oat, SO);
  ScriptRun Run;
  for (const auto &Inv : Script) {
    const double CallStart = T.now();
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    T.record("sim.call", CallStart, T.now(), -1, App);
    if (!R) {
      O.fail("sim_invocation", Label + ": method " +
                                   std::to_string(Inv.MethodIdx) + ": " +
                                   R.message());
      Run.Results.push_back({sim::Outcome::Exception, 0, ~0ULL});
      continue;
    }
    O.ok("sim_invocation");
    Run.Results.push_back({R->What, R->ReturnValue, R->TraceHash});
    Run.Cycles += R->Cycles;
    Run.Insns += R->Insns;
    Run.ICacheMisses += R->ICacheMisses;
  }
  for (uint64_t N : Sim.outlinedEntryCounts())
    Run.OutlinedCalls += N;
  Run.StartupPages = Sim.touchedTextPages();
  if (Profile)
    Run.Executed = Sim.profileData();
  return Run;
}

void OutputTotals::setEndToEnd(Metrics &Out) const {
  Out.set("text_bytes", static_cast<double>(TextBytes), "bytes");
  Out.set("oat_bytes", static_cast<double>(OatBytes), "bytes");
  Out.set("run_cycles", static_cast<double>(Cycles), "cycles");
  Out.set("startup_pages", static_cast<double>(Pages), "pages");
}

void OutputTotals::setSim(Metrics &Out) const {
  Out.set("sim.insns", static_cast<double>(SimInsns), "count");
  Out.set("sim.icache_misses", static_cast<double>(SimMisses), "count");
  Out.set("sim.outlined_calls", static_cast<double>(SimOutlined), "count");
}

core::CalibroOptions baselineOptions(uint32_t Threads) {
  core::CalibroOptions O;
  O.EnableGc = O.EnableMerge = O.EnableLayout = false;
  O.CompileThreads = Threads;
  return O;
}

std::optional<oat::OatFile> buildBaseline(const dex::App &App,
                                          const std::string &AppName,
                                          uint32_t Threads, Ops &O) {
  auto B = core::buildApp(App, baselineOptions(Threads));
  if (!B) {
    O.fail("build", AppName + ": baseline: " + B.message());
    return std::nullopt;
  }
  O.ok("build");
  return std::move(B->Oat);
}

void checkImage(const std::string &AppName, const oat::OatFile &Oat,
                const std::vector<uint8_t> &Bytes, const std::string &Path,
                const oat::OatFile &Baseline,
                const std::vector<workload::Invocation> &Script, Ops &O,
                Trace &T, int App, OutputTotals &Tot) {
  if (auto E = verify::verifyOatFile(Oat))
    O.fail("check.verifier", AppName + ": " + E.message());
  else
    O.ok("check.verifier");

  // Sizes come from the file as written, parsed by the reader above, and
  // must agree with what the linker reports.
  std::vector<uint8_t> OnDisk;
  const bool RoundTrip = writeFile(Path, Bytes) && readFile(Path, OnDisk);
  ElfSizes S = RoundTrip ? readElfSizes(OnDisk) : ElfSizes{};
  if (!RoundTrip)
    S.Error = "cannot write or read back " + Path;
  O.check("check.elf_sizes",
          S.Error.empty() && OnDisk == Bytes && S.Extent == S.FileBytes &&
              S.TextBytes == Oat.textBytes(),
          AppName + ": ELF reader " +
              (S.Error.empty() ? "text " + std::to_string(S.TextBytes) +
                                     " vs " +
                                     std::to_string(Oat.textBytes()) +
                                     ", file " + std::to_string(S.FileBytes) +
                                     " vs extent " + std::to_string(S.Extent)
                               : S.Error));
  Tot.TextBytes += S.TextBytes;
  Tot.OatBytes += S.FileBytes;

  O.check("check.text_smaller", Oat.textBytes() < Baseline.textBytes(),
          AppName + ": .text " + std::to_string(Oat.textBytes()) +
              " not below baseline " + std::to_string(Baseline.textBytes()));

  // GC soundness: every method the baseline run executed must still
  // resolve in the image (as itself, an alias or a thunk).
  const ScriptRun BaselineRun =
      runScript(Baseline, Script, true, O, T, App, AppName + " baseline");
  bool Sound = true;
  std::string Missing;
  for (const auto &[Idx, Cycles] : BaselineRun.Executed.CyclesByMethod)
    if (!Oat.findMethod(Idx)) {
      Sound = false;
      Missing = std::to_string(Idx);
      break;
    }
  O.check("check.gc_sound", Sound,
          AppName + ": executed method " + Missing + " missing from image");

  ScriptRun Run = runScript(Oat, Script, false, O, T, App, AppName);
  for (std::size_t I = 0; I < Script.size(); ++I) {
    const InvocationResult &A = Run.Results[I], &B = BaselineRun.Results[I];
    O.check("check.behaviour",
            A.What == B.What && A.ReturnValue == B.ReturnValue &&
                A.TraceHash == B.TraceHash,
            AppName + ": invocation " + std::to_string(I) +
                " differs from the baseline image");
  }
  Tot.Cycles += Run.Cycles;
  Tot.Pages += Run.StartupPages;
  Tot.SimInsns += Run.Insns;
  Tot.SimMisses += Run.ICacheMisses;
  Tot.SimOutlined += Run.OutlinedCalls;
}

uint64_t peakRssBytes() { return support::sampleRss().PeakBytes; }

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

} // namespace perfbench
