#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>

#include "cluster/cluster_metrics.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "digest.hh"
#include "host_speed.hh"
#include "obs/trace_recorder.hh"
#include "perfmodel/overhead_profiler.hh"
#include "perfmodel/trainer.hh"
#include "spans.hh"
#include "stack.hh"

namespace perfbench
{

using namespace flep;

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"wall_s", "s"},
        {"traced_wall_s", "s"},
        {"run_ms_p50", "ms"},
        {"run_ms_p90", "ms"},
        {"peak_rss_mb", "MB"},
        {"hpf_speedup", "x"},
        {"ffs_share_accuracy", "ratio"},
        {"slo_attainment", "ratio"},
        {"goodput_fraction", "ratio"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup.suite_ms", "ms"},
        {"setup.train_ms", "ms"},
        {"setup.profile_ms", "ms"},
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.self_ms", "ms"},
        {"gpu.self_ms", "ms"},
        {"gpu.original_share", "ratio"},
        {"gpu.macro_hit_rate", "ratio"},
        {"gpu.slow_chunks", "count"},
        {"gpu.macro_windows", "count"},
        {"gpu.macro_invalidations", "count"},
        {"runtime.self_ms", "ms"},
        {"runtime.policy_calls", "count"},
        {"runtime.policy_ms", "ms"},
        {"runtime.dispatch_ms", "ms"},
        {"runtime.preemptions", "count"},
        {"runtime.preempt_latency_us_p50", "us"},
        {"runtime.preempt_latency_us_p90", "us"},
        {"cluster.self_ms", "ms"},
        {"cluster.build_ms", "ms"},
        {"cluster.collect_ms", "ms"},
        {"cluster.placements", "count"},
        {"cluster.preemptive_placements", "count"},
        {"cluster.queue_delay_p99_ms", "ms"},
        {"cluster.utilization", "ratio"},
        {"cluster.prediction_error_pct", "%"},
        {"resilience.faults", "count"},
        {"resilience.restarts", "count"},
        {"resilience.migrations", "count"},
        {"resilience.permanent_failures", "count"},
        {"resilience.lost_work_ms", "ms"},
        {"resilience.spare_absorbed_jobs", "count"},
        {"obs.self_ms", "ms"},
        {"obs.trace_events", "count"},
        {"obs.overhead_pct", "%"},
        {"obs.ns_per_trace_event", "ns"},
        {"obs.bytes_per_event", "B"},
        {"obs.write_ms", "ms"},
        {"obs.read_ms", "ms"},
        {"bench.traced_pass_ms", "ms"},
        {"bench.remainder_ms", "ms"},
    };
    return specs;
}

namespace
{

/** Set-up repetitions per run; set-up time is their median. */
constexpr int kSetupReps = 5;

/** Untraced/traced pass pairs a trace-off run makes at least. */
constexpr int kMinPassPairs = 2;

double
msSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e6;
}

double
percentileOf(const std::vector<double> &v, double p)
{
    SampleStats s;
    for (double x : v)
        s.add(x);
    return s.count() == 0 ? 0.0 : s.percentile(p);
}

double
median(const std::vector<double> &v)
{
    return percentileOf(v, 50);
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** A suite plus the offline phase's products. */
struct Env
{
    std::unique_ptr<BenchmarkSuite> suite;
    OfflineArtifacts artifacts;
};

const GpuConfig &
referenceGpu()
{
    static const GpuConfig gpu = GpuConfig::keplerK40();
    return gpu;
}

Env
setupPlain()
{
    Env env;
    env.suite = std::make_unique<BenchmarkSuite>();
    env.artifacts = runOfflinePhase(*env.suite, referenceGpu(), 100, 50, 999);
    return env;
}

/** runOfflinePhase() with its parameters, one span per step. */
Env
setupSpanned(SpanRecorder &spans)
{
    Env env;
    {
        ScopedSpan s(spans, "setup.suite", Layer::Setup);
        env.suite = std::make_unique<BenchmarkSuite>();
    }
    {
        ScopedSpan s(spans, "setup.train", Layer::Setup);
        TrainerConfig tcfg;
        tcfg.trainInputs = 100;
        tcfg.seed = 999;
        env.artifacts.models =
            ModelTrainer(referenceGpu(), tcfg).trainSuite(*env.suite);
    }
    {
        ScopedSpan s(spans, "setup.profile", Layer::Setup);
        ProfilerConfig pcfg;
        pcfg.runs = 50;
        pcfg.seed = 999 * 31 + 7;
        env.artifacts.overheads =
            profileSuite(referenceGpu(), *env.suite, pcfg);
    }
    for (const auto &w : env.suite->all())
        env.artifacts.amortizeL[w->name()] = w->paperAmortizeL();
    return env;
}

enum class Mode
{
    Untraced,    //!< library entry points, tracing off
    Recorder,    //!< library entry points into an in-memory recorder
    Instrumented //!< stack.hh, recorder, spans, .flepbin round trip
};

/** What the instrumented pass measures beyond results. */
struct Instruments
{
    SpanRecorder spans;
    StackCounters counters;
    std::string traceFile;
    std::uint64_t traceBytes = 0;
};

struct PassOut
{
    std::vector<CoRunResult> coruns;
    std::vector<ClusterResult> clusters;
    std::vector<ClusterMetrics> clusterMetrics;
    /** Host ms per simulation, in pass order. */
    std::vector<double> simMs;
    /** Per simulation: checks that are not about the result itself
     *  (the trace round trip) passed. */
    std::vector<bool> sideOk;
    std::uint64_t traceEvents = 0;
    double wallMs = 0.0;
};

/** Write `rec` as .flepbin, read it back, and compare event counts. */
bool
roundTrip(const TraceRecorder &rec, Instruments &ins)
{
    bool ok = true;
    {
        ScopedSpan s(ins.spans, "obs.write", Layer::Obs);
        ok = rec.writeBinFile(ins.traceFile);
    }
    TraceRecorder back;
    {
        ScopedSpan s(ins.spans, "obs.read", Layer::Obs);
        ok = ok && back.readBinFile(ins.traceFile);
    }
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(ins.traceFile, ec);
    if (!ec)
        ins.traceBytes += bytes;
    return ok && !ec && back.eventCount() == rec.eventCount();
}

PassOut
runPass(const BenchmarkSuite &suite, const OfflineArtifacts &artifacts,
        const PassConfigs &pass, Mode mode, Instruments *ins)
{
    PassOut out;
    const std::int64_t pass_start = nowNs();
    for (const CoRunConfig &base : pass.coruns) {
        const std::int64_t t0 = nowNs();
        CoRunConfig cfg = base;
        std::unique_ptr<TraceRecorder> rec;
        if (mode != Mode::Untraced) {
            rec = std::make_unique<TraceRecorder>();
            cfg.tracer = rec.get();
        }
        bool side_ok = true;
        if (mode == Mode::Instrumented) {
            out.coruns.push_back(runCoRunInstrumented(
                suite, artifacts, cfg, ins->spans, ins->counters));
            side_ok = roundTrip(*rec, *ins);
        } else {
            out.coruns.push_back(runCoRun(suite, artifacts, cfg));
        }
        if (rec)
            out.traceEvents += rec->eventCount();
        out.simMs.push_back(msSince(t0));
        out.sideOk.push_back(side_ok);
    }
    for (const ClusterConfig &base : pass.clusters) {
        const std::int64_t t0 = nowNs();
        ClusterConfig cfg = base;
        std::unique_ptr<TraceRecorder> rec;
        if (mode != Mode::Untraced) {
            rec = std::make_unique<TraceRecorder>();
            cfg.tracer = rec.get();
        }
        bool side_ok = true;
        ClusterMetrics metrics;
        if (mode == Mode::Instrumented) {
            out.clusters.push_back(runClusterInstrumented(
                suite, artifacts, cfg, ins->spans, ins->counters, metrics));
            side_ok = roundTrip(*rec, *ins);
        } else {
            out.clusters.push_back(runCluster(suite, artifacts, cfg));
            metrics = computeClusterMetrics(out.clusters.back());
        }
        out.clusterMetrics.push_back(metrics);
        if (rec)
            out.traceEvents += rec->eventCount();
        out.simMs.push_back(msSince(t0));
        out.sideOk.push_back(side_ok);
    }
    out.wallMs = msSince(pass_start);
    return out;
}

/** Every invocation of every host completed with all of its tasks. */
bool
corunValid(const BenchmarkSuite &suite, const CoRunConfig &cfg,
           const CoRunResult &res)
{
    std::vector<long> completed(cfg.kernels.size(), 0);
    for (const InvocationResult &inv : res.invocations) {
        if (inv.process < 0 ||
            static_cast<std::size_t>(inv.process) >= cfg.kernels.size())
            return false;
        const KernelSpec &spec =
            cfg.kernels[static_cast<std::size_t>(inv.process)];
        const long tasks =
            suite.byName(spec.workload).input(spec.input).totalTasks;
        if (inv.totalTasks != tasks || inv.finishTick < inv.invokeTick ||
            inv.execNs == 0)
            return false;
        ++completed[static_cast<std::size_t>(inv.process)];
    }
    for (std::size_t i = 0; i < cfg.kernels.size(); ++i) {
        // Run-to-completion scripts finish every invocation; horizon
        // runs of endless loops must at least finish one each.
        if (cfg.horizonNs == 0 ? completed[i] != cfg.kernels[i].repeats
                               : completed[i] < 1)
            return false;
    }
    return true;
}

/** Jobs are conserved and per-job lost work sums to the fleet total. */
bool
clusterValid(const ClusterConfig &cfg, const ClusterResult &res,
             const ClusterMetrics &m)
{
    if (res.outcomes.size() != cfg.jobs.size())
        return false;
    std::size_t completed = 0, failed = 0, unfinished = 0;
    Tick lost = 0;
    for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        const JobOutcome &o = res.outcomes[i];
        if (o.job.id != static_cast<int>(i) ||
            (o.completed && o.failedPermanently))
            return false;
        if (o.completed)
            ++completed;
        else if (o.failedPermanently)
            ++failed;
        else
            ++unfinished;
        lost += o.lostWorkNs;
    }
    if (completed + failed + unfinished != cfg.jobs.size() ||
        completed != m.completed ||
        static_cast<long>(failed) != res.permanentFailures)
        return false;
    // Without a horizon every job must leave the system.
    if (cfg.horizonNs == 0 && unfinished != 0)
        return false;
    return lost == res.lostWorkNs;
}

/** Per-simulation digests of a pass, in pass order. */
std::vector<std::uint64_t>
simDigests(const PassOut &out)
{
    std::vector<std::uint64_t> d;
    for (const auto &r : out.coruns)
        d.push_back(digestOf(r));
    for (const auto &r : out.clusters)
        d.push_back(digestOf(r));
    return d;
}

/** The digest a run prints: over every simulation result of a pass. */
std::uint64_t
passDigest(const PassOut &out)
{
    Digest d;
    d.add(simDigests(out));
    return d.value();
}

/**
 * Check every simulation of `out`: its own output checks, the side
 * checks of its pass, and, when a reference pass is given, identity
 * with the reference (identicalTo and digest). Adds to the report's
 * attempted/failed counts.
 */
void
checkPass(const Env &env, const PassConfigs &pass, const PassOut &out,
          const PassOut *ref, Report &report)
{
    const auto digests = simDigests(out);
    const auto ref_digests =
        ref != nullptr ? simDigests(*ref) : std::vector<std::uint64_t>{};
    std::size_t sim = 0;
    for (std::size_t i = 0; i < out.coruns.size(); ++i, ++sim) {
        bool ok = out.sideOk[sim] &&
                  corunValid(*env.suite, pass.coruns[i], out.coruns[i]);
        if (ref != nullptr) {
            ok = ok && out.coruns[i].identicalTo(ref->coruns[i]) &&
                 digests[sim] == ref_digests[sim];
        }
        ++report.attempted;
        report.failed += ok ? 0 : 1;
    }
    for (std::size_t i = 0; i < out.clusters.size(); ++i, ++sim) {
        bool ok = out.sideOk[sim] &&
                  clusterValid(pass.clusters[i], out.clusters[i],
                               out.clusterMetrics[i]);
        if (ref != nullptr) {
            ok = ok && out.clusters[i].identicalTo(ref->clusters[i]) &&
                 digests[sim] == ref_digests[sim];
        }
        ++report.attempted;
        report.failed += ok ? 0 : 1;
    }
}

/** The modelled outcomes; 1.0 where a workload has no such outcome. */
struct Outcomes
{
    double hpfSpeedup = 1.0;
    double ffsShare = kFfsTargetShare;
    double sloAttainment = 1.0;
    double goodput = 1.0;
    bool hasHpf = false, hasFfs = false, hasCluster = false;
};

Outcomes
outcomesOf(const PassConfigs &pass, const PassOut &out)
{
    Outcomes o;
    // Fig 8: mean over pairs of MPS / HPF high-priority turnaround.
    std::map<std::string, std::pair<double, double>> pairs;
    SampleStats ffs_share;
    for (std::size_t i = 0; i < pass.coruns.size(); ++i) {
        const CoRunConfig &cfg = pass.coruns[i];
        const CoRunResult &res = out.coruns[i];
        if (cfg.scheduler == SchedulerKind::FlepFfs) {
            auto it = res.overallShare.find(0);
            ffs_share.add(it == res.overallShare.end() ? 0.0 : it->second);
            continue;
        }
        const auto key = cfg.kernels[0].workload + "_" +
                         cfg.kernels[1].workload;
        const auto t = res.turnaroundsOf(1);
        const double us = t.empty() ? 0.0 : ticksToUs(t.front());
        if (cfg.scheduler == SchedulerKind::Mps)
            pairs[key].first = us;
        else if (cfg.scheduler == SchedulerKind::FlepHpf)
            pairs[key].second = us;
    }
    if (!pairs.empty()) {
        double sum = 0.0;
        for (const auto &[key, mps_hpf] : pairs)
            sum += mps_hpf.first / mps_hpf.second;
        o.hpfSpeedup = sum / static_cast<double>(pairs.size());
        o.hasHpf = true;
    }
    if (ffs_share.count() > 0) {
        o.ffsShare = ffs_share.mean();
        o.hasFfs = true;
    }
    if (!out.clusterMetrics.empty()) {
        double slo = 0.0, good = 0.0;
        for (const ClusterMetrics &m : out.clusterMetrics) {
            slo += m.sloAttainment;
            good += m.goodputFraction;
        }
        const auto n = static_cast<double>(out.clusterMetrics.size());
        o.sloAttainment = slo / n;
        o.goodput = good / n;
        o.hasCluster = true;
    }
    return o;
}

double
ffsAccuracy(double share)
{
    return 1.0 - std::fabs(share - kFfsTargetShare) / kFfsTargetShare;
}

void
noteOutcomes(const Outcomes &o, Report &report)
{
    report.notes.push_back(
        "modelled outcomes are simulated and deterministic per seed; the "
        "model is not validated against hardware");
    if (o.hasHpf) {
        report.notes.push_back(format(
            "hpf_speedup %.3fx  paper %.1fx (rel. error %+.1f%%), repo "
            "fig08 %.1fx",
            o.hpfSpeedup, kPaperHpfSpeedup,
            100.0 * (o.hpfSpeedup - kPaperHpfSpeedup) / kPaperHpfSpeedup,
            kRepoHpfSpeedup));
    } else {
        report.notes.push_back("hpf_speedup n/a on this workload (1.0)");
    }
    if (o.hasFfs) {
        report.notes.push_back(format(
            "ffs high-priority share %.4f  target/paper %.4f  "
            "ffs_share_error %.4f (rel. error %+.2f%%)",
            o.ffsShare, kFfsTargetShare,
            std::fabs(o.ffsShare - kFfsTargetShare),
            100.0 * (o.ffsShare - kFfsTargetShare) / kFfsTargetShare));
    } else {
        report.notes.push_back(
            "ffs_share_accuracy n/a on this workload (1.0)");
    }
    if (o.hasCluster) {
        report.notes.push_back(format(
            "slo_attainment %.4f  goodput_fraction %.4f  (no paper "
            "counterpart: the paper is single-GPU)",
            o.sloAttainment, o.goodput));
    } else {
        report.notes.push_back(
            "slo_attainment and goodput_fraction: no SLO jobs and no "
            "faults on this workload (1.0 by definition)");
    }
}

void
fillMetrics(const std::vector<MetricSpec> &specs,
            const std::map<std::string, double> &values, Report &report)
{
    for (const MetricSpec &spec : specs) {
        auto it = values.find(spec.name);
        if (it == values.end())
            throw std::logic_error(format("metric %s not measured",
                                          spec.name));
        if (!std::isfinite(it->second))
            throw std::runtime_error(format("metric %s is not finite",
                                            spec.name));
        report.metrics.push_back({spec.name, spec.unit, it->second});
    }
}

/**
 * Host times of alternating untraced and recorder passes, raw and scaled
 * to the quiet host (host_speed.hh).
 *
 * Host times are reported as medians of scaled times. Over six
 * 20-second runs per workload on a shared 4-core KVM guest, the median
 * raw pass spread 17-29% (IQR over median) and the fastest raw pass
 * 13-36%, because a slow spell can outlast a run; the median scaled
 * pass spread 4-11%. The fastest scaled pass spread 12-19%: one pass
 * whose reference loops ran in a slow moment reads too fast.
 */
struct Timings
{
    std::vector<double> untracedMs, recorderMs;
    std::vector<double> untracedScaledMs, recorderScaledMs;
    /** Per simulation, its scaled host ms in each untraced pass. */
    std::vector<std::vector<double>> simScaledMs;
    /** Reference-loop ms: one before each pass, one after the last. */
    std::vector<double> referenceMs;
    /** Trace events one recorder pass records. */
    std::uint64_t traceEvents = 0;
};

/**
 * Time pairs of an untraced pass and a recorder pass, each checked
 * against `ref` and each between two runs of the reference loop, until
 * another pair would overrun `seconds` counted from `start`; at least
 * kMinPassPairs pairs.
 */
Timings
timePasses(const Env &env, const PassConfigs &pass, const PassOut &ref,
           std::int64_t start, double seconds, Report &report)
{
    Timings t;
    t.simScaledMs.resize(ref.simMs.size());
    auto &loops = t.referenceMs;
    loops.push_back(timeReferenceLoop());
    for (int pairs = 1;; ++pairs) {
        const std::int64_t pair_start = nowNs();
        const PassOut plain = runPass(*env.suite, env.artifacts, pass,
                                      Mode::Untraced, nullptr);
        loops.push_back(timeReferenceLoop());
        const PassOut traced = runPass(*env.suite, env.artifacts, pass,
                                       Mode::Recorder, nullptr);
        loops.push_back(timeReferenceLoop());
        checkPass(env, pass, plain, &ref, report);
        checkPass(env, pass, traced, &ref, report);
        const std::size_t n = loops.size();
        const auto scale_plain = [&](double ms) {
            return scaledMs(ms, loops[n - 3], loops[n - 2]);
        };
        t.untracedMs.push_back(plain.wallMs);
        t.recorderMs.push_back(traced.wallMs);
        t.untracedScaledMs.push_back(scale_plain(plain.wallMs));
        t.recorderScaledMs.push_back(
            scaledMs(traced.wallMs, loops[n - 2], loops[n - 1]));
        t.traceEvents = traced.traceEvents;
        for (std::size_t i = 0; i < t.simScaledMs.size(); ++i)
            t.simScaledMs[i].push_back(scale_plain(plain.simMs[i]));
        const double pair_ms = msSince(pair_start);
        if (pairs >= kMinPassPairs &&
            msSince(start) + pair_ms > seconds * 1000.0)
            break;
    }
    return t;
}

/** Raw and scaled host times of the timed passes, for the notes. */
std::string
noteTimings(const Timings &t)
{
    return format(
        "raw pass ms fastest/median: untraced %.1f/%.1f, traced "
        "%.1f/%.1f; reference loop ms fastest/median %.2f/%.2f over %zu "
        "runs (quiet host %.1f); scaled medians: untraced %.1f, traced "
        "%.1f",
        fastest(t.untracedMs), median(t.untracedMs), fastest(t.recorderMs),
        median(t.recorderMs), fastest(t.referenceMs), median(t.referenceMs),
        t.referenceMs.size(), kReferenceQuietMs, median(t.untracedScaledMs),
        median(t.recorderScaledMs));
}

/**
 * An untimed warm-up pair: it warms the allocator and the recorder's
 * chunk pools, is checked, and its untraced pass becomes the reference
 * every later pass must reproduce. Sets the report's digests.
 */
PassOut
warmUp(const Env &env, const PassConfigs &pass, Report &report)
{
    PassOut ref =
        runPass(*env.suite, env.artifacts, pass, Mode::Untraced, nullptr);
    checkPass(env, pass, ref, nullptr, report);
    report.digest = passDigest(ref);
    const PassOut traced =
        runPass(*env.suite, env.artifacts, pass, Mode::Recorder, nullptr);
    checkPass(env, pass, traced, &ref, report);
    report.tracedDigest = passDigest(traced);
    return ref;
}

Report
runTraceOff(const Options &opt)
{
    Report report;
    std::vector<double> setup_s;
    Env env;
    for (int k = 0; k < kSetupReps; ++k) {
        const std::int64_t t0 = nowNs();
        env = setupPlain();
        setup_s.push_back(msSince(t0) / 1000.0);
    }
    const PassConfigs pass =
        makeWorkload(opt.workload, opt.seed, *env.suite, env.artifacts);

    const std::int64_t start = nowNs();
    const PassOut ref = warmUp(env, pass, report);
    const Timings t =
        timePasses(env, pass, ref, start, opt.seconds, report);
    const auto &wall_ms = t.untracedMs;
    const auto &traced_ms = t.recorderMs;

    // One latency per simulation: the median of its scaled times.
    std::vector<double> sim_latency;
    for (const auto &samples : t.simScaledMs)
        sim_latency.push_back(median(samples));

    const Outcomes o = outcomesOf(pass, ref);
    std::map<std::string, double> v;
    v["setup_s"] = median(setup_s);
    v["wall_s"] = median(t.untracedScaledMs) / 1000.0;
    v["traced_wall_s"] = median(t.recorderScaledMs) / 1000.0;
    v["run_ms_p50"] = percentileOf(sim_latency, 50);
    v["run_ms_p90"] = percentileOf(sim_latency, 90);
    v["peak_rss_mb"] = peakRssMb();
    v["hpf_speedup"] = o.hpfSpeedup;
    v["ffs_share_accuracy"] = ffsAccuracy(o.ffsShare);
    v["slo_attainment"] = o.sloAttainment;
    v["goodput_fraction"] = o.goodput;
    fillMetrics(endToEndMetrics(), v, report);

    report.notes.push_back(format(
        "%zu untraced + %zu traced timed passes after one warm-up pair, "
        "%zu simulations per pass; set-up repeated %d times",
        wall_ms.size(), traced_ms.size(), ref.simMs.size(), kSetupReps));
    report.notes.push_back(format(
        "wall_s, traced_wall_s: median over timed passes of host time "
        "scaled to the quiet host; run_ms_p50/p90 over %zu simulations, "
        "each the median of its %zu scaled untraced times; setup_s is "
        "raw host time",
        sim_latency.size(), wall_ms.size()));
    report.notes.push_back(noteTimings(t));
    std::string passes = "raw pass ms (untraced/traced):";
    for (std::size_t i = 0; i < wall_ms.size(); ++i)
        passes += format(" %.1f/%.1f", wall_ms[i], traced_ms[i]);
    report.notes.push_back(passes);
    std::string setups = "set-up s:";
    for (double s : setup_s)
        setups += format(" %.3f", s);
    report.notes.push_back(setups);
    noteOutcomes(o, report);
    return report;
}

Report
runTraceOn(const Options &opt)
{
    Report report;
    Instruments ins;
    ins.traceFile = opt.outDir + "/trace-" +
                    workloadName(opt.workload) + ".flepbin";
    const Env env = setupSpanned(ins.spans);
    const PassConfigs pass =
        makeWorkload(opt.workload, opt.seed, *env.suite, env.artifacts);

    // The recorder's cost comes from alternating untraced and recorder
    // passes through the library entry points, scaled medians, so no
    // benchmark span or forwarding timer is counted as its cost. The
    // instrumented pass only splits its own wall time by layer.
    const std::int64_t start = nowNs();
    const PassOut ref = warmUp(env, pass, report);
    const Timings t =
        timePasses(env, pass, ref, start, opt.seconds, report);

    const std::int64_t t0 = nowNs();
    const PassOut traced = runPass(*env.suite, env.artifacts, pass,
                                   Mode::Instrumented, &ins);
    const double traced_ms = msSince(t0);
    checkPass(env, pass, traced, &ref, report);
    report.tracedDigest = passDigest(traced);

    const auto span_ms = [&](const char *prefix) {
        return static_cast<double>(ins.spans.totalNs(prefix)) / 1e6;
    };
    const auto self = ins.spans.selfNsByLayer();
    const auto self_ms = [&](Layer l) {
        return static_cast<double>(self[static_cast<std::size_t>(l)]) / 1e6;
    };

    double mps_ms = 0.0, all_ms = 0.0;
    for (std::size_t i = 0; i < traced.simMs.size(); ++i) {
        all_ms += traced.simMs[i];
        if (i < pass.coruns.size() &&
            pass.coruns[i].scheduler == SchedulerKind::Mps)
            mps_ms += traced.simMs[i];
    }

    std::map<std::string, double> v;
    v["setup.suite_ms"] = span_ms("setup.suite");
    v["setup.train_ms"] = span_ms("setup.train");
    v["setup.profile_ms"] = span_ms("setup.profile");

    const auto &c = ins.counters;
    const double run_ms = span_ms("sim.run");
    v["sim.events"] = static_cast<double>(c.events);
    v["sim.ns_per_event"] =
        c.events == 0 ? 0.0 : run_ms * 1e6 / static_cast<double>(c.events);
    v["sim.self_ms"] = self_ms(Layer::Sim);

    v["gpu.self_ms"] = self_ms(Layer::Gpu);
    v["gpu.original_share"] = all_ms > 0.0 ? mps_ms / all_ms : 0.0;
    const std::uint64_t chunks = c.fastChunks + c.slowChunks;
    v["gpu.macro_hit_rate"] =
        chunks == 0 ? 0.0
                    : static_cast<double>(c.fastChunks) /
                          static_cast<double>(chunks);
    v["gpu.slow_chunks"] = static_cast<double>(c.slowChunks);
    v["gpu.macro_windows"] = static_cast<double>(c.windows);
    v["gpu.macro_invalidations"] = static_cast<double>(c.invalidations);

    long preemptions = 0;
    for (const auto &r : traced.coruns)
        preemptions += r.preemptions;
    for (const auto &r : traced.clusters) {
        for (long p : r.devicePreemptions)
            preemptions += p;
    }
    v["runtime.self_ms"] = self_ms(Layer::Runtime);
    v["runtime.policy_calls"] =
        static_cast<double>(ins.spans.count("runtime.policy."));
    v["runtime.policy_ms"] = span_ms("runtime.policy.");
    v["runtime.dispatch_ms"] = span_ms("runtime.dispatch.");
    v["runtime.preemptions"] = static_cast<double>(preemptions);
    v["runtime.preempt_latency_us_p50"] =
        percentileOf(c.preemptLatencyNs, 50) / 1000.0;
    v["runtime.preempt_latency_us_p90"] =
        percentileOf(c.preemptLatencyNs, 90) / 1000.0;

    double placements = 0, preemptive = 0, queue_p99 = 0, util = 0,
           pred_err = 0, faults = 0, restarts = 0, migrations = 0,
           failures = 0, lost_ms = 0, absorbed = 0;
    for (std::size_t i = 0; i < traced.clusters.size(); ++i) {
        const ClusterResult &r = traced.clusters[i];
        const ClusterMetrics &m = traced.clusterMetrics[i];
        placements += static_cast<double>(r.placements);
        preemptive += static_cast<double>(r.preemptivePlacements);
        queue_p99 += m.p99QueueDelayUs / 1000.0;
        double u = 0.0;
        for (double d : m.deviceUtilization)
            u += d;
        if (!m.deviceUtilization.empty())
            util += u / static_cast<double>(m.deviceUtilization.size());
        pred_err += m.meanAbsPredictionErrorPct;
        faults += static_cast<double>(m.faultsInjected);
        restarts += static_cast<double>(m.restarts);
        migrations += static_cast<double>(m.migrations);
        failures += static_cast<double>(m.permanentFailures);
        lost_ms += static_cast<double>(m.lostWorkNs) / 1e6;
        absorbed += static_cast<double>(m.jobsAbsorbedBySpares);
    }
    v["cluster.self_ms"] = self_ms(Layer::Cluster);
    v["cluster.build_ms"] = span_ms("cluster.build");
    v["cluster.collect_ms"] = span_ms("cluster.collect");
    v["cluster.placements"] = placements;
    v["cluster.preemptive_placements"] = preemptive;
    v["cluster.queue_delay_p99_ms"] = queue_p99;
    v["cluster.utilization"] = util;
    v["cluster.prediction_error_pct"] = pred_err;
    v["resilience.faults"] = faults;
    v["resilience.restarts"] = restarts;
    v["resilience.migrations"] = migrations;
    v["resilience.permanent_failures"] = failures;
    v["resilience.lost_work_ms"] = lost_ms;
    v["resilience.spare_absorbed_jobs"] = absorbed;

    const double untraced_ms = median(t.untracedScaledMs);
    const double recorder_ms = median(t.recorderScaledMs);
    const double events = static_cast<double>(t.traceEvents);
    v["obs.self_ms"] = self_ms(Layer::Obs);
    v["obs.trace_events"] = events;
    v["obs.overhead_pct"] = 100.0 * (recorder_ms / untraced_ms - 1.0);
    v["obs.ns_per_trace_event"] =
        events == 0.0 ? 0.0 : (recorder_ms - untraced_ms) * 1e6 / events;
    v["obs.bytes_per_event"] =
        traced.traceEvents == 0
            ? 0.0
            : static_cast<double>(ins.traceBytes) /
                  static_cast<double>(traced.traceEvents);
    v["obs.write_ms"] = span_ms("obs.write");
    v["obs.read_ms"] = span_ms("obs.read");

    double layered_ms = 0.0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
        if (static_cast<Layer>(l) != Layer::Setup)
            layered_ms += static_cast<double>(self[l]) / 1e6;
    }
    v["bench.traced_pass_ms"] = traced_ms;
    v["bench.remainder_ms"] = traced_ms - layered_ms;
    fillMetrics(perLayerMetrics(), v, report);

    const std::string span_file = opt.outDir + "/spans-" +
                                  workloadName(opt.workload) + ".jsonl";
    if (!ins.spans.writeJsonLines(span_file))
        throw std::runtime_error("cannot write " + span_file);
    std::filesystem::remove(ins.traceFile);
    report.notes.push_back(format(
        "traced pass %.3f ms = sim %.3f + gpu %.3f + runtime %.3f + "
        "cluster %.3f + obs %.3f + remainder %.3f (self times)",
        traced_ms, v["sim.self_ms"], v["gpu.self_ms"],
        v["runtime.self_ms"], v["cluster.self_ms"], v["obs.self_ms"],
        v["bench.remainder_ms"]));
    report.notes.push_back(format(
        "obs overhead: scaled medians of %zu untraced / %zu recorder "
        "passes, %.3f / %.3f ms",
        t.untracedMs.size(), t.recorderMs.size(), untraced_ms,
        recorder_ms));
    report.notes.push_back(noteTimings(t));
    report.notes.push_back(format("%zu spans written to %s",
                                  ins.spans.spans().size(),
                                  span_file.c_str()));
    return report;
}

} // namespace

std::uint64_t
untracedPassDigest(const BenchmarkSuite &suite,
                   const OfflineArtifacts &artifacts, const PassConfigs &pass)
{
    return passDigest(
        runPass(suite, artifacts, pass, Mode::Untraced, nullptr));
}

Report
runBenchmark(const Options &opt)
{
    Report report = opt.trace ? runTraceOn(opt) : runTraceOff(opt);
    report.notes.insert(
        report.notes.begin(),
        format("workload %s  seed %llu  trace %d  digest %s (traced "
               "pass %s)",
               workloadName(opt.workload),
               static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
               hexDigest(report.digest).c_str(),
               hexDigest(report.tracedDigest).c_str()));
    return report;
}

std::string
reportJson(const Report &report)
{
    std::string out = format(
        "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
        "\"metrics\": {",
        report.failed == 0 && report.attempted > 0 ? "true" : "false",
        report.attempted, report.failed);
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
    }
    out += "}}";
    return out;
}

} // namespace perfbench
