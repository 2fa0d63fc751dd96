//===- perfbench/Daemon.cpp - daemon-edit workload ---------------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One closed-loop client drives a CompileService with a shared sharded
/// cache, a global detect-memory budget and a 1-thread pool; every job asks
/// for automatic K, so detection runs in windows that spill. The client
/// loops over one paper app: edit a few methods (seeded), submit, wait.
/// Edited methods miss the method cache and their LTBO groups re-detect;
/// everything else hits and replays. The cold first build happens in
/// set-up.
///
/// One client, not one per core: with four, every method-cache hit's
/// map/unmap of its blob file ran on several job threads at once, and job
/// throughput swung by a factor of two between runs of the same seed on a
/// 4-vCPU VM (system time was a third of the CPU time).
///
/// Every job image is checked byte for byte against a serial, cacheless
/// buildApp of the same edited app at the job's effective partition count.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "support/Random.h"

#include <filesystem>
#include <memory>
#include <thread>

using namespace calibro;

namespace perfbench {
namespace {

/// Checker threads, and the baseline build's.
constexpr uint32_t Threads = 4;
/// The service's pool. A warm job is mostly method-cache hits, each a
/// map/unmap of one blob file; on a 4-thread pool those ran on four CPUs at
/// once and job throughput followed the VM's steal time (7–12 jobs/s over
/// four runs, seeds 1–4), while one thread ran as fast and held steady.
constexpr uint32_t ServiceThreads = 1;
constexpr int SetupRepeats = 5;
constexpr uint32_t EditsPerJob = 3;
constexpr double DefaultScale = 4;
/// Global detect budget across the jobs in flight. The service's default
/// two job slots each get half a fair share; auto-K then splits the app into
/// several windowed groups.
constexpr uint64_t GlobalBudgetBytes = 8ull << 20;

struct Site {
  uint32_t File = 0, Pos = 0, Insn = 0;
};

struct Edit {
  Site At;
  int64_t NewImm = 0;
};

/// Every immediate the edit model may change: ConstInt and AddImm operands
/// of non-native methods.
std::vector<Site> editSites(const dex::App &A) {
  std::vector<Site> Sites;
  for (uint32_t F = 0; F < A.Files.size(); ++F)
    for (uint32_t P = 0; P < A.Files[F].Methods.size(); ++P) {
      const dex::Method &M = A.Files[F].Methods[P];
      if (M.IsNative)
        continue;
      for (uint32_t I = 0; I < M.Code.size(); ++I)
        if (M.Code[I].Opcode == dex::Op::ConstInt ||
            M.Code[I].Opcode == dex::Op::AddImm)
          Sites.push_back({F, P, I});
    }
  return Sites;
}

int64_t &immAt(dex::App &A, const Site &S) {
  return A.Files[S.File].Methods[S.Pos].Code[S.Insn].Imm;
}

/// Edit \p Step: EditsPerJob immediates, each bumped by 1..15. A pure
/// function of (seed, step) and the app's state.
std::vector<Edit> makeEdits(dex::App &A, const std::vector<Site> &Sites,
                            uint64_t Seed, uint64_t Step) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL ^ (Step * 0xbf58476d1ce4e5b9ULL));
  std::vector<Edit> Edits;
  for (uint32_t K = 0; K < EditsPerJob; ++K) {
    const Site &S = Sites[R.nextBelow(Sites.size())];
    int64_t &Imm = immAt(A, S);
    Imm += 1 + static_cast<int64_t>(R.nextBelow(15));
    Edits.push_back({S, Imm});
  }
  return Edits;
}

core::CalibroOptions jobOptions() {
  core::CalibroOptions O;
  O.EnableCto = O.EnableLtbo = true;
  O.LtboPartitions = 0; // Automatic K from the arbitrated budget.
  return O;
}

/// The serial, cacheless reference for a job at its effective K.
core::CalibroOptions referenceOptions(std::size_t K) {
  core::CalibroOptions O = jobOptions();
  O.LtboPartitions = static_cast<uint32_t>(K);
  O.CompileThreads = O.LtboThreads = 1;
  return O;
}

struct Job {
  bool Ok = false;
  std::vector<Edit> Edits;
  double Submit = 0, Done = 0; ///< Client side, on the trace clock.
  double SerializeSeconds = 0;
  /// Process CPU time from submit to wait's return, and from submit to
  /// serialized bytes; the client and the service run one job at a time, so
  /// it is this job's.
  double Cpu = 0, CpuToBytes = 0;
  service::JobRecord Record;
  ImageHash Image;
};

/// Submits one job and waits for it, retrying rejected submissions. Fills
/// everything but the edits.
void runJob(service::CompileService &Svc, const dex::App &App,
            const std::string &Name, int ClientId, Trace &T, bool Record,
            Ops &O, Job &J, std::vector<uint8_t> *KeepBytes) {
  service::JobSpec Spec;
  Spec.Name = Name;
  Spec.App = &App;
  Spec.Build = jobOptions();
  J.Submit = T.now();
  const double C0 = cpuSeconds();
  std::shared_ptr<service::JobHandle> H;
  for (;;) {
    auto S = Svc.submit(Spec);
    if (S) {
      O.ok("job_submit");
      H = std::move(*S);
      break;
    }
    O.fail("job_submit", Name + ": " + S.message());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const service::JobRecord &R = H->wait();
  J.Done = T.now();
  J.Cpu = cpuSeconds() - C0;
  J.Record = R;
  if (!R.Ok) {
    O.fail("job", Name + ": " + R.ErrorMessage);
    return;
  }
  O.ok("job");
  J.Ok = true;
  const double S0 = T.now();
  std::vector<uint8_t> Bytes = oat::serializeOat(H->oat());
  J.SerializeSeconds = T.now() - S0;
  J.CpuToBytes = cpuSeconds() - C0;
  J.Image = hashImage(Bytes);
  if (KeepBytes)
    *KeepBytes = std::move(Bytes);

  if (!Record)
    return;
  // The job span from the client's side, with the service's own timers
  // placed inside it: queue wait, then the runner's build (compile, LTBO,
  // link in that order; the rest of the build is the job's self time).
  const core::BuildStats &St = R.Stats;
  int JobSpan = T.record("job", J.Submit, J.Done, -1, ClientId);
  T.record("service.queue", J.Submit, J.Submit + R.QueueSeconds, JobSpan,
           ClientId, true);
  const double B0 = J.Submit + R.QueueSeconds;
  int BuildSpan = T.record("service.build", B0, B0 + R.BuildSeconds, JobSpan,
                           ClientId, true);
  T.record("compile.codegen", B0, B0 + St.CompileSeconds, BuildSpan, ClientId,
           true);
  const double BEnd = B0 + R.BuildSeconds;
  T.record("ltbo", BEnd - St.LinkSeconds - St.LtboSeconds,
           BEnd - St.LinkSeconds, BuildSpan, ClientId, true);
  T.record("oat.link", BEnd - St.LinkSeconds, BEnd, BuildSpan, ClientId, true);
  T.record("serialize", S0, S0 + J.SerializeSeconds, -1, ClientId);
}

double medianOf(const std::vector<const Job *> &Jobs, auto Field) {
  std::vector<double> V;
  for (const Job *J : Jobs)
    V.push_back(static_cast<double>(Field(*J)));
  return median(V);
}

} // namespace

int runDaemon(const RunConfig &Cfg, Ops &O, Metrics &Out) {
  const double Scale = Cfg.Scale > 0 ? Cfg.Scale : DefaultScale;
  Trace T(Cfg.Traced);

  // The first paper app, with its fixed generator seed (see OneShot.cpp);
  // the workload seed drives the edits and the held-out script.
  const workload::AppSpec Spec = workload::paperApps(Scale).front();
  const std::string &Name = Spec.Name;

  // Set-up: generate the app, start a service over a fresh cache directory
  // and build the app once through it (the cold cache fill). Repeated;
  // setup_s is the median. The last service stays up for the timed loop.
  dex::App App;
  std::vector<Site> Sites;
  std::unique_ptr<service::CompileService> Svc;
  Job Cold;
  std::vector<uint8_t> ColdBytes;
  std::vector<double> SetupTimes, SetupCpu, MakeAppTimes, ColdBuilds;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    if (Svc)
      Svc->shutdown();
    const double Start = T.now(), StartCpu = cpuSeconds();
    App = workload::makeApp(Spec);
    Sites = editSites(App);
    MakeAppTimes.push_back(T.now() - Start);
    service::ServiceOptions SO;
    SO.Threads = ServiceThreads;
    SO.CacheDir = Cfg.WorkDir + "/daemon-cache-" + std::to_string(Rep);
    SO.GlobalMemoryBudgetBytes = GlobalBudgetBytes;
    auto Made = service::CompileService::create(SO);
    if (!Made) {
      O.fail("service", Made.message());
      return 1;
    }
    O.ok("service");
    Svc = std::move(*Made);
    const ImageHash Prev = Cold.Image;
    Cold = Job{};
    runJob(*Svc, App, Name + "-cold", 0, T, false, O, Cold, &ColdBytes);
    if (!Cold.Ok)
      return 1;
    SetupTimes.push_back(T.now() - Start);
    SetupCpu.push_back(cpuSeconds() - StartCpu);
    ColdBuilds.push_back(Cold.CpuToBytes);
    if (Rep > 0)
      O.check("check.repeat_identical", Cold.Image == Prev,
              Name + ": cold image of set-up " + std::to_string(Rep) +
                  " differs from the first");
  }
  auto ColdOat = oat::deserializeOat(ColdBytes);
  if (!ColdOat) {
    O.fail("check.deserialize", Name + ": " + ColdOat.message());
    return 1;
  }

  // Timed region: the closed-loop client edits, submits and waits until the
  // run length is used up. A traced run records spans for every other job,
  // so the untraced jobs in between give the tracing overhead.
  std::vector<Job> Jobs;
  const double Start = T.now(), StartCpu = cpuSeconds();
  for (uint64_t Step = 1; T.now() - Start < Cfg.Seconds; ++Step) {
    Job J;
    J.Edits = makeEdits(App, Sites, Cfg.Seed, Step);
    runJob(*Svc, App, Name + "-" + std::to_string(Step), 0, T,
           T.enabled() && Step % 2 == 1, O, J, nullptr);
    Jobs.push_back(std::move(J));
  }
  const double End = Jobs.empty() ? Start : Jobs.back().Done;
  const double TimedCpu = cpuSeconds() - StartCpu;
  std::vector<const Job *> All;
  std::vector<double> Latency, TracedLat, UntracedLat, JobCpu;
  for (std::size_t I = 0; I < Jobs.size(); ++I) {
    const Job &J = Jobs[I];
    if (!J.Ok)
      continue;
    All.push_back(&J);
    Latency.push_back(J.Done - J.Submit);
    JobCpu.push_back(J.Cpu);
    (I % 2 == 0 ? TracedLat : UntracedLat).push_back(J.Done - J.Submit);
  }
  const uint64_t PeakRss = peakRssBytes();
  const service::ServiceStats SvcStats = Svc->stats();
  Svc->shutdown();
  // Removing the cache directories now keeps the file system's clean-up of
  // their blobs out of the next run's set-up.
  for (int Rep = 0; Rep < SetupRepeats; ++Rep)
    std::filesystem::remove_all(Cfg.WorkDir + "/daemon-cache-" +
                                std::to_string(Rep));

  // Check every job image against its serial, cacheless reference. Checker
  // K replays every edit in order on its own copy of the pristine app and
  // builds the references of jobs K, K + Threads, ...; the cold job is job
  // 0.
  std::vector<std::thread> Checkers;
  for (uint32_t K = 0; K < Threads; ++K)
    Checkers.emplace_back([&, K] {
      dex::App Ref = workload::makeApp(Spec);
      for (std::size_t I = 0; I <= Jobs.size(); ++I) {
        const Job &J = I == 0 ? Cold : Jobs[I - 1];
        for (const Edit &E : J.Edits)
          immAt(Ref, E.At) = E.NewImm;
        if (I % Threads != K || !J.Ok)
          continue;
        const std::string Label = Name + "-" + std::to_string(I);
        auto R = core::buildApp(
            Ref, referenceOptions(J.Record.Stats.Ltbo.PartitionsUsed));
        if (!R) {
          O.fail("build", Label + ": reference: " + R.message());
          continue;
        }
        O.ok("build");
        O.check("check.serial_identical",
                hashImage(oat::serializeOat(R->Oat)) == J.Image,
                Label + ": service image differs from the serial build");
      }
    });
  for (auto &Th : Checkers)
    Th.join();

  // The cold image against the baseline of the pristine app.
  OutputTotals Tot;
  if (auto Base = buildBaseline(workload::makeApp(Spec), Name, Threads, O))
    checkImage(Name, *ColdOat, ColdBytes,
               Cfg.WorkDir + "/daemon-" + Name + ".oat", *Base,
               workload::makeScript(Spec, MeasureScriptLength,
                                    measureScriptSeed(Cfg.Seed)),
               O, T, 0, Tot);

  const double JobsPerS =
      End > Start ? static_cast<double>(All.size()) / (End - Start) : 0;
  const double JobsPerCpuS =
      TimedCpu > 0 ? static_cast<double>(All.size()) / TimedCpu : 0;
  std::printf("workload daemon-edit scale %.3g seed %llu: %s, %zu jobs, "
              "%llu rejected submissions, arbiter peak %llu bytes\n",
              Scale, (unsigned long long)Cfg.Seed, Name.c_str(), All.size(),
              (unsigned long long)SvcStats.JobsRejected,
              (unsigned long long)SvcStats.ArbiterPeakBytes);
  // Latency by quarter of the timed region, to show drift within a run.
  std::printf("job latency p50 by quarter (s):");
  for (int Q = 0; Q < 4; ++Q) {
    std::vector<double> V;
    for (const Job *J : All)
      if (static_cast<int>((J->Done - Start) / Cfg.Seconds * 4) == Q)
        V.push_back(J->Done - J->Submit);
    std::printf(" %.4f (%zu)", median(V), V.size());
  }
  std::printf("\njobs per second: wall %.3f, cpu %.3f; set-ups (s): wall "
              "%.3f, cpu %.3f (medians)",
              JobsPerS, JobsPerCpuS, median(SetupTimes), median(SetupCpu));
  std::printf("\ncold builds in set-up (cpu s):");
  for (double V : ColdBuilds)
    std::printf(" %.4f", V);
  std::printf("\n");
  if (Latency.size() >= 100)
    std::printf("job latency: p50 %.4f s, p90 %.4f s over %zu jobs\n",
                median(Latency), quantile(Latency, 0.9), Latency.size());
  else
    std::printf("job latency: p50 %.4f s over %zu jobs (too few for p90)\n",
                median(Latency), Latency.size());

  if (!Cfg.Traced) {
    // CPU times, as in the one-shot workloads (see README.md).
    Out.set("setup_s", median(SetupCpu), "s");
    // A warm rebuild, submit to serialized bytes. The cold builds through
    // the service are part of setup_s: their CPU time, most of it in the
    // kernel creating the cache's files, ranged over a factor of three
    // within and between runs.
    Out.set("build_s",
            medianOf(All, [](const Job &J) { return J.CpuToBytes; }),
            "cpu-s");
    Tot.setEndToEnd(Out);
    Out.set("peak_rss_bytes", static_cast<double>(PeakRss), "bytes");
    Out.set("jobs_per_s", JobsPerCpuS, "jobs/cpu-s");
    Out.set("job_p50_s", median(JobCpu), "cpu-s");
    return 0;
  }

  auto M = [&](auto Field) { return medianOf(All, Field); };
  const auto St = [](const Job &J) -> const core::BuildStats & {
    return J.Record.Stats;
  };
  // Layers the service hides from outside spans, or that this workload does
  // not arm (analysis, layout, profile), read 0.
  for (const char *K :
       {"compile.wall_s", "analysis.callgraph_s", "analysis.bind_s",
        "analysis.reach_s", "analysis.merge_plan_s", "link_app.untimed_s",
        "layout.wall_s"})
    Out.set(K, 0, "s");
  Out.set("compile.codegen_s", M([&](const Job &J) {
            return St(J).CompileSeconds;
          }),
          "s");
  Out.set("ltbo.wall_s", M([&](const Job &J) { return St(J).LtboSeconds; }),
          "s");
  Out.set("ltbo.preprocess_s",
          M([&](const Job &J) { return St(J).Ltbo.PreprocessSeconds; }), "s");
  Out.set("ltbo.detect_sum_s",
          M([&](const Job &J) { return St(J).Ltbo.BuildTreeSeconds; }), "s");
  Out.set("ltbo.select_s",
          M([&](const Job &J) { return St(J).Ltbo.SelectSeconds; }), "s");
  Out.set("ltbo.rewrite_s",
          M([&](const Job &J) { return St(J).Ltbo.RewriteSeconds; }), "s");
  Out.set("ltbo.window_merge_s",
          M([&](const Job &J) { return St(J).Ltbo.MergeSeconds; }), "s");
  Out.set("oat.link_s", M([&](const Job &J) {
            return St(J).LinkSeconds - St(J).LayoutSeconds;
          }),
          "s");
  Out.set("oat.serialize_s",
          M([](const Job &J) { return J.SerializeSeconds; }), "s");
  Out.set("hir.insns_simplified",
          M([&](const Job &J) { return St(J).HirInsnsSimplified; }), "count");
  Out.set("codegen.cto_call_sites",
          M([&](const Job &J) { return St(J).CtoCallSites; }), "count");
  Out.set("ltbo.symbols",
          M([&](const Job &J) { return St(J).Ltbo.SymbolCount; }), "count");
  Out.set("ltbo.tree_nodes",
          M([&](const Job &J) { return St(J).Ltbo.TreeNodes; }), "count");
  Out.set("ltbo.candidates_evaluated",
          M([&](const Job &J) { return St(J).Ltbo.CandidatesEvaluated; }),
          "count");
  Out.set("ltbo.insns_removed",
          M([&](const Job &J) { return St(J).Ltbo.InsnsRemoved; }), "count");
  Out.set("ltbo.occurrences_replaced",
          M([&](const Job &J) { return St(J).Ltbo.OccurrencesReplaced; }),
          "count");
  Out.set("ltbo.groups_detected",
          M([&](const Job &J) { return St(J).Ltbo.GroupsDetected; }), "count");
  Out.set("ltbo.groups_reused",
          M([&](const Job &J) { return St(J).Ltbo.GroupsReused; }), "count");
  Out.set("layout.cut_after", 0, "count");
  Out.set("analysis.gc_bytes", 0, "bytes");
  Out.set("analysis.merge_saved_bytes", 0, "bytes");
  Out.set("ltbo.detect_peak_bytes",
          M([&](const Job &J) { return St(J).Ltbo.DetectPeakBytes; }),
          "bytes");
  Tot.setSim(Out);
  Out.set("cache.method_hits", M([&](const Job &J) { return St(J).CacheHits; }),
          "count");
  Out.set("cache.method_misses",
          M([&](const Job &J) { return St(J).CacheMisses; }), "count");
  Out.set("service.queue_wait_p50_s",
          M([](const Job &J) { return J.Record.QueueSeconds; }), "s");
  Out.set("service.build_p50_s",
          M([](const Job &J) { return J.Record.BuildSeconds; }), "s");
  Out.set("service.compile_p50_s",
          M([&](const Job &J) { return St(J).CompileSeconds; }), "s");
  Out.set("service.ltbo_p50_s",
          M([&](const Job &J) { return St(J).LtboSeconds; }), "s");
  Out.set("service.link_p50_s",
          M([&](const Job &J) { return St(J).LinkSeconds; }), "s");
  Out.set("workload.make_app_s", median(MakeAppTimes), "s");
  Out.set("profile.collect_s", 0, "s");
  Out.set("trace.overhead_s", median(TracedLat) - median(UntracedLat), "s");
  std::printf("trace: %zu spans\n", T.size());
  for (const auto &[Name, Self] : T.selfTimes())
    std::printf("self %-20s %.4f s\n", Name.c_str(), Self);
  if (!Cfg.TracePath.empty() && !T.writeChrome(Cfg.TracePath))
    std::fprintf(stderr, "cannot write %s\n", Cfg.TracePath.c_str());
  return 0;
}

} // namespace perfbench
