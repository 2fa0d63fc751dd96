//===- perfbench/OneShot.cpp - fullstack and outline-k1 workloads -----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two one-shot workloads build the whole paper corpus, app after app,
/// from in-memory dex::App to serialized OAT bytes, as calibro-dex2oat does:
///
///  * fullstack: closed world (enableDeadCode), CTO+LTBO, PlOpti K=8, 4
///    threads, a profile from an earlier scripted run on the baseline image
///    (HfOpti on, layout armed at the default 4 KiB pages). GC, merge,
///    layout and outlining all do real work.
///  * outline-k1: open world, CTO+LTBO with one global detection (K=1), 4
///    threads, no profile. Repeat detection dominates; the analysis and
///    layout stages do nothing, so a change to them must leave it unmoved.
///
/// A traced run alternates untraced and traced corpus builds. The traced
/// ones record spans around compileApp / linkApp / serializeOat, place the
/// library's stage timers inside the linkApp span, and replay the call
/// graph, bind, reachability and merge-planning calls outside the build to
/// time them from their public entry points.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/CallGraph.h"
#include "analysis/Merge.h"
#include "core/Calibro.h"
#include "oat/Serialize.h"

#include <optional>
#include <unordered_set>

using namespace calibro;

namespace perfbench {
namespace {

constexpr uint32_t Threads = 4;
constexpr int SetupRepeats = 3;
constexpr double DefaultScale = 8;

struct AppInput {
  workload::AppSpec Spec;
  dex::App App;
  std::vector<workload::Invocation> MeasureScript;
  oat::OatFile Baseline;
  profile::Profile Prof;
};

struct Workload {
  bool ClosedWorld = false;
  bool UseProfile = false;
  uint32_t Partitions = 1;
};

Workload describe(const std::string &Name) {
  Workload W;
  if (Name == "fullstack") {
    W.ClosedWorld = W.UseProfile = true;
    W.Partitions = 8;
  }
  return W;
}

core::CalibroOptions buildOptions(const Workload &W, const AppInput &In,
                                  uint32_t NumThreads) {
  core::CalibroOptions O;
  O.EnableCto = O.EnableLtbo = true;
  O.LtboPartitions = W.Partitions;
  O.LtboThreads = O.CompileThreads = NumThreads;
  if (W.UseProfile)
    O.Profile = &In.Prof;
  return O;
}

/// Per-layer sums over one traced corpus build.
using LayerSums = std::map<std::string, double>;

struct BuiltApp {
  bool Ok = false;
  double Wall = 0; ///< compileApp + linkApp + serializeOat spans.
  double Cpu = 0;  ///< Process CPU time over the same spans.
  oat::OatFile Oat;
  std::vector<uint8_t> Bytes;
};

/// Builds one app; in a traced iteration also records spans, stage
/// counters and the analysis replays into \p L.
BuiltApp buildOne(const AppInput &In, const core::CalibroOptions &Opts,
                  int AppId, bool Traced, Trace &T, Ops &O, LayerSums *L) {
  BuiltApp B;
  const std::string &Name = In.Spec.Name;
  const double C0 = cpuSeconds();
  const double S0 = T.now();
  auto C = core::compileApp(In.App, Opts);
  const double S1 = T.now();
  const double C1 = cpuSeconds();
  if (!C) {
    O.fail("build", Name + ": compileApp: " + C.message());
    return B;
  }
  // The replay copy is taken between the two spans, so it is not build time.
  std::optional<core::CompiledApp> Copy;
  if (Traced)
    Copy = *C;
  const double C2 = cpuSeconds();
  const double S2 = T.now();
  auto R = core::linkApp(std::move(*C), Opts);
  const double S3 = T.now();
  if (!R) {
    O.fail("build", Name + ": linkApp: " + R.message());
    return B;
  }
  B.Bytes = oat::serializeOat(R->Oat);
  const double S4 = T.now();
  B.Cpu = (C1 - C0) + (cpuSeconds() - C2);
  O.ok("build");
  B.Ok = true;
  B.Wall = (S1 - S0) + (S4 - S2);
  B.Oat = std::move(R->Oat);
  if (!Traced)
    return B;

  const core::BuildStats &St = R->Stats;
  const core::OutlineStats &Lt = St.Ltbo;
  int CompileSpan = T.record("compile_app", S0, S1, -1, AppId);
  T.record("compile.codegen", S0, S0 + St.CompileSeconds, CompileSpan, AppId,
           true);
  // Inside linkApp the stage timers run in this order: (untimed analysis)
  // -> LtboSeconds -> LinkSeconds, and LinkSeconds contains LayoutSeconds.
  // Placing them back to back from the span's end leaves the untimed part
  // as link_app's self time.
  int LinkAppSpan = T.record("link_app", S2, S3, -1, AppId);
  const double LinkStart = S3 - St.LinkSeconds;
  const double LtboStart = LinkStart - St.LtboSeconds;
  int LtboSpan = T.record("ltbo", LtboStart, LinkStart, LinkAppSpan, AppId,
                          true);
  T.record("ltbo.preprocess", LtboStart, LtboStart + Lt.PreprocessSeconds,
           LtboSpan, AppId, true);
  T.record("ltbo.rewrite", LinkStart - Lt.RewriteSeconds, LinkStart, LtboSpan,
           AppId, true);
  int OatLinkSpan =
      T.record("oat.link", LinkStart, S3, LinkAppSpan, AppId, true);
  T.record("layout", LinkStart, LinkStart + St.LayoutSeconds, OatLinkSpan,
           AppId, true);
  T.record("serialize", S3, S4, -1, AppId);

  LayerSums &Sum = *L;
  Sum["compile.wall_s"] += S1 - S0;
  Sum["compile.codegen_s"] += St.CompileSeconds;
  Sum["hir.insns_simplified"] += static_cast<double>(St.HirInsnsSimplified);
  Sum["codegen.cto_call_sites"] += static_cast<double>(St.CtoCallSites);
  Sum["link_app.untimed_s"] += (S3 - S2) - St.LtboSeconds - St.LinkSeconds;
  Sum["analysis.gc_bytes"] += static_cast<double>(Lt.GcBytes);
  Sum["analysis.merge_saved_bytes"] += static_cast<double>(Lt.MergeSavedBytes);
  Sum["ltbo.wall_s"] += St.LtboSeconds;
  Sum["ltbo.preprocess_s"] += Lt.PreprocessSeconds;
  // BuildTreeSeconds is summed over groups that ran in parallel: CPU-like
  // time, not a slice of wall time, so it is kept out of the span tree.
  Sum["ltbo.detect_sum_s"] += Lt.BuildTreeSeconds;
  Sum["ltbo.select_s"] += Lt.SelectSeconds;
  Sum["ltbo.rewrite_s"] += Lt.RewriteSeconds;
  Sum["ltbo.window_merge_s"] += Lt.MergeSeconds;
  Sum["ltbo.symbols"] += static_cast<double>(Lt.SymbolCount);
  Sum["ltbo.tree_nodes"] += static_cast<double>(Lt.TreeNodes);
  Sum["ltbo.candidates_evaluated"] +=
      static_cast<double>(Lt.CandidatesEvaluated);
  Sum["ltbo.insns_removed"] += static_cast<double>(Lt.InsnsRemoved);
  Sum["ltbo.occurrences_replaced"] +=
      static_cast<double>(Lt.OccurrencesReplaced);
  Sum["ltbo.detect_peak_bytes"] =
      std::max(Sum["ltbo.detect_peak_bytes"],
               static_cast<double>(Lt.DetectPeakBytes));
  Sum["ltbo.groups_detected"] += static_cast<double>(Lt.GroupsDetected);
  Sum["ltbo.groups_reused"] += static_cast<double>(Lt.GroupsReused);
  Sum["layout.wall_s"] += St.LayoutSeconds;
  Sum["layout.cut_after"] += static_cast<double>(St.LayoutCutAfter);
  Sum["oat.link_s"] += St.LinkSeconds - St.LayoutSeconds;
  Sum["oat.serialize_s"] += S4 - S3;
  Sum["build_s"] += B.Wall;

  // Replays of the analysis entry points linkApp calls without a timer.
  // The call graph is built by compileApp for every app; bind, reachability
  // and merge planning run only where linkApp runs them (closed world with
  // GC or merge on), on the same compiled methods.
  double A0 = T.now();
  auto G = analysis::buildCallGraph(In.App);
  double A1 = T.now();
  T.record("replay.callgraph", A0, A1, -1, AppId);
  if (!G)
    O.fail("replay", Name + ": buildCallGraph: " + G.message());
  Sum["analysis.callgraph_s"] += A1 - A0;
  const bool ClosedWorld = Copy->HasAnalysis &&
                           !Copy->Graph.Entrypoints.empty() &&
                           (Opts.EnableGc || Opts.EnableMerge);
  if (!ClosedWorld)
    return B;
  A0 = T.now();
  auto Bind = analysis::bindBinaryEdges(Copy->Graph, Copy->Methods, false);
  A1 = T.now();
  T.record("replay.bind", A0, A1, -1, AppId);
  Sum["analysis.bind_s"] += A1 - A0;
  if (!Bind)
    O.fail("replay", Name + ": bindBinaryEdges: " + Bind.message());
  std::vector<codegen::CompiledMethod> Live;
  if (Opts.EnableGc) {
    A0 = T.now();
    analysis::Reachability Reach = analysis::computeReachability(Copy->Graph);
    A1 = T.now();
    T.record("replay.reach", A0, A1, -1, AppId);
    Sum["analysis.reach_s"] += A1 - A0;
    std::unordered_set<uint32_t> Dead(Reach.Dead.begin(), Reach.Dead.end());
    for (auto &M : Copy->Methods)
      if (!Dead.count(M.MethodIdx))
        Live.push_back(std::move(M));
  } else {
    Live = std::move(Copy->Methods);
  }
  if (Opts.EnableMerge) {
    A0 = T.now();
    analysis::MergePlan Plan = analysis::planMerge(Live);
    A1 = T.now();
    T.record("replay.merge_plan", A0, A1, -1, AppId);
    Sum["analysis.merge_plan_s"] += A1 - A0;
    O.check("replay", Plan.SavedBytes == Lt.MergeSavedBytes,
            Name + ": replayed merge plan saves " +
                std::to_string(Plan.SavedBytes) + " bytes, the build " +
                std::to_string(Lt.MergeSavedBytes));
  }
  return B;
}

} // namespace

int runOneShot(const RunConfig &Cfg, Ops &O, Metrics &Out) {
  const Workload W = describe(Cfg.Workload);
  const double Scale = Cfg.Scale > 0 ? Cfg.Scale : DefaultScale;
  Trace T(Cfg.Traced);

  // Set-up: inputs, baseline images, the profile, and one warm-up corpus
  // build. Repeated; setup_s is the median.
  // The corpus is the six preset apps with their fixed generator seeds, like
  // the paper's fixed test set. Re-drawing the apps per --seed moved corpus
  // build time by 13% (interquartile range over five seeds), so the seed
  // drives the held-out script instead.
  std::vector<AppInput> Apps;
  std::vector<double> SetupTimes, SetupCpu, MakeAppTimes, ProfileTimes;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    const double Start = T.now(), StartCpu = cpuSeconds();
    Apps.clear();
    double MakeApp = 0, Profile = 0;
    for (workload::AppSpec Spec : workload::paperApps(Scale)) {
      if (W.ClosedWorld)
        workload::enableDeadCode(Spec);
      AppInput In;
      const double M0 = T.now();
      In.App = workload::makeApp(Spec);
      MakeApp += T.now() - M0;
      In.MeasureScript = workload::makeScript(Spec, MeasureScriptLength,
                                              measureScriptSeed(Cfg.Seed));
      In.Spec = std::move(Spec);
      Apps.push_back(std::move(In));
    }
    for (std::size_t I = 0; I < Apps.size(); ++I) {
      AppInput &In = Apps[I];
      auto B = buildBaseline(In.App, In.Spec.Name, Threads, O);
      if (!B)
        return 1;
      In.Baseline = std::move(*B);
      if (W.UseProfile) {
        const double P0 = T.now();
        auto Script = workload::makeScript(In.Spec, ProfileScriptLength,
                                           profileScriptSeed());
        In.Prof = runScript(In.Baseline, Script, true, O, T,
                            static_cast<int>(I), In.Spec.Name)
                      .Executed;
        Profile += T.now() - P0;
      }
    }
    for (std::size_t I = 0; I < Apps.size(); ++I)
      buildOne(Apps[I], buildOptions(W, Apps[I], Threads),
               static_cast<int>(I), false, T, O, nullptr);
    SetupTimes.push_back(T.now() - Start);
    SetupCpu.push_back(cpuSeconds() - StartCpu);
    MakeAppTimes.push_back(MakeApp);
    ProfileTimes.push_back(Profile);
  }

  // Timed region: whole corpus builds until the run length is used up. A
  // traced run alternates untraced and traced builds. The end-to-end times
  // are CPU times (see README.md: on a shared VM the host's steal time
  // moved wall times by a third between sets of runs), and contention only
  // ever adds to them, so they take each app's cheapest build: build_s is
  // their sum over the corpus, and job_p50_s (a "job" here is one app
  // build) their median.
  std::vector<double> Untraced, TracedWalls, UntracedCpu;
  std::vector<double> CheapestApp(Apps.size(), 0);
  std::vector<LayerSums> Layers;
  std::vector<std::vector<uint8_t>> FirstBytes(Apps.size());
  std::vector<BuiltApp> Last(Apps.size());
  const double Start = T.now();
  for (int Iter = 0; Iter < 2 || T.now() - Start < Cfg.Seconds; ++Iter) {
    const bool Traced = Cfg.Traced && Iter % 2 == 1;
    LayerSums L;
    double Wall = 0, Cpu = 0;
    for (std::size_t I = 0; I < Apps.size(); ++I) {
      BuiltApp B = buildOne(Apps[I], buildOptions(W, Apps[I], Threads),
                            static_cast<int>(I), Traced, T, O, &L);
      if (!B.Ok)
        continue;
      Wall += B.Wall;
      Cpu += B.Cpu;
      if (!Traced && (CheapestApp[I] == 0 || B.Cpu < CheapestApp[I]))
        CheapestApp[I] = B.Cpu;
      if (Iter == 0)
        FirstBytes[I] = B.Bytes;
      else
        O.check("check.repeat_identical", B.Bytes == FirstBytes[I],
                Apps[I].Spec.Name + ": corpus build " + std::to_string(Iter) +
                    " differs from the first");
      Last[I] = std::move(B);
    }
    (Traced ? TracedWalls : Untraced).push_back(Wall);
    if (!Traced)
      UntracedCpu.push_back(Cpu);
    if (Traced)
      Layers.push_back(std::move(L));
  }
  const uint64_t PeakRss = peakRssBytes();

  // Output checks, against baselines built in this run.
  OutputTotals Tot;
  for (std::size_t I = 0; I < Apps.size(); ++I) {
    const AppInput &In = Apps[I];
    if (Last[I].Ok)
      checkImage(In.Spec.Name, Last[I].Oat, Last[I].Bytes,
                 Cfg.WorkDir + "/" + Cfg.Workload + "-" + In.Spec.Name +
                     ".oat",
                 In.Baseline, In.MeasureScript, O, T, static_cast<int>(I),
                 Tot);
  }
  // Thread-count determinism: the traced run rebuilds the corpus on one
  // thread and compares bytes with the 4-thread images.
  if (Cfg.Traced)
    for (std::size_t I = 0; I < Apps.size(); ++I) {
      BuiltApp B = buildOne(Apps[I], buildOptions(W, Apps[I], 1),
                            static_cast<int>(I), false, T, O, nullptr);
      if (B.Ok)
        O.check("check.threads_identical", B.Bytes == Last[I].Bytes,
                Apps[I].Spec.Name + ": 1-thread image differs from 4-thread");
    }

  std::printf("set-ups (s): wall %.3f, cpu %.3f (medians)\n",
              median(SetupTimes), median(SetupCpu));
  std::printf("workload %s scale %.3g seed %llu: %zu apps, %zu untraced and "
              "%zu traced corpus builds\n",
              Cfg.Workload.c_str(), Scale, (unsigned long long)Cfg.Seed,
              Apps.size(), Untraced.size(), TracedWalls.size());
  std::printf("untraced corpus builds (s):");
  for (double V : Untraced)
    std::printf(" %.3f", V);
  std::printf("\nuntraced corpus builds (cpu s):");
  for (double V : UntracedCpu)
    std::printf(" %.3f", V);
  std::printf("\n");
  if (!Cfg.Traced) {
    double BuildS = 0;
    for (double V : CheapestApp)
      BuildS += V;
    Out.set("setup_s", median(SetupCpu), "s");
    Out.set("build_s", BuildS, "cpu-s");
    Tot.setEndToEnd(Out);
    Out.set("peak_rss_bytes", static_cast<double>(PeakRss), "bytes");
    // One app build is a job here, so this is the corpus throughput.
    Out.set("jobs_per_s", BuildS > 0 ? Apps.size() / BuildS : 0,
            "jobs/cpu-s");
    Out.set("job_p50_s", median(CheapestApp), "cpu-s");
    return 0;
  }

  // Per-layer metrics: medians over the traced corpus builds.
  auto LayerMedian = [&](const std::string &Key) {
    std::vector<double> V;
    for (const LayerSums &L : Layers) {
      auto It = L.find(Key);
      V.push_back(It == L.end() ? 0.0 : It->second);
    }
    return median(V);
  };
  const char *Seconds[] = {
      "compile.wall_s",     "compile.codegen_s", "analysis.callgraph_s",
      "analysis.bind_s",    "analysis.reach_s",  "analysis.merge_plan_s",
      "link_app.untimed_s", "ltbo.wall_s",       "ltbo.preprocess_s",
      "ltbo.detect_sum_s",  "ltbo.select_s",     "ltbo.rewrite_s",
      "ltbo.window_merge_s", "layout.wall_s",    "oat.link_s",
      "oat.serialize_s"};
  const char *Counts[] = {"hir.insns_simplified", "codegen.cto_call_sites",
                          "ltbo.symbols", "ltbo.tree_nodes",
                          "ltbo.candidates_evaluated", "ltbo.insns_removed",
                          "ltbo.occurrences_replaced", "ltbo.groups_detected",
                          "ltbo.groups_reused", "layout.cut_after"};
  const char *Bytes[] = {"analysis.gc_bytes", "analysis.merge_saved_bytes",
                         "ltbo.detect_peak_bytes"};
  for (const char *K : Seconds)
    Out.set(K, LayerMedian(K), "s");
  for (const char *K : Counts)
    Out.set(K, LayerMedian(K), "count");
  for (const char *K : Bytes)
    Out.set(K, LayerMedian(K), "bytes");
  Tot.setSim(Out);
  // The one-shot workloads bypass the build cache and the service.
  for (const char *K : {"cache.method_hits", "cache.method_misses"})
    Out.set(K, 0, "count");
  for (const char *K : {"service.queue_wait_p50_s", "service.build_p50_s",
                        "service.compile_p50_s", "service.ltbo_p50_s",
                        "service.link_p50_s"})
    Out.set(K, 0, "s");
  Out.set("workload.make_app_s", median(MakeAppTimes), "s");
  Out.set("profile.collect_s", median(ProfileTimes), "s");
  const double TracedBuild = median(TracedWalls);
  Out.set("trace.overhead_s", TracedBuild - median(Untraced), "s");

  // Span accounting: the build spans plus link_app's untimed remainder must
  // cover the traced build time.
  const double Attributed =
      LayerMedian("compile.wall_s") + LayerMedian("ltbo.wall_s") +
      LayerMedian("layout.wall_s") + LayerMedian("oat.link_s") +
      LayerMedian("link_app.untimed_s") + LayerMedian("oat.serialize_s");
  std::printf("trace: traced build_s %.4f, attributed %.4f (%.1f%%), "
              "%zu spans\n",
              TracedBuild, Attributed,
              TracedBuild > 0 ? 100.0 * Attributed / TracedBuild : 0.0,
              T.size());
  for (const auto &[Name, Self] : T.selfTimes())
    std::printf("self %-20s %.4f s\n", Name.c_str(), Self);
  if (!Cfg.TracePath.empty() && !T.writeChrome(Cfg.TracePath))
    std::fprintf(stderr, "cannot write %s\n", Cfg.TracePath.c_str());
  return 0;
}

} // namespace perfbench
