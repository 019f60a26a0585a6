#include "stack.hh"

#include <algorithm>
#include <stdexcept>

#include "baselines/mps_baseline.hh"
#include "common/strings.hh"
#include "flep/metrics.hh"
#include "obs/trace_recorder.hh"
#include "runtime/ffs.hh"
#include "runtime/hpf.hh"
#include "runtime/runtime.hh"

namespace perfbench
{

using namespace flep;

void
TimedPolicy::onArrival(RuntimeContext &ctx, KernelRecord &rec)
{
    ScopedSpan s(spans_, "runtime.policy.onArrival", Layer::Runtime);
    inner_->onArrival(ctx, rec);
}

void
TimedPolicy::onFinish(RuntimeContext &ctx, KernelRecord &rec)
{
    ScopedSpan s(spans_, "runtime.policy.onFinish", Layer::Runtime);
    inner_->onFinish(ctx, rec);
}

void
TimedPolicy::onPreempted(RuntimeContext &ctx, KernelRecord &rec)
{
    ScopedSpan s(spans_, "runtime.policy.onPreempted", Layer::Runtime);
    inner_->onPreempted(ctx, rec);
}

void
TimedPolicy::onTimer(RuntimeContext &ctx)
{
    ScopedSpan s(spans_, "runtime.policy.onTimer", Layer::Runtime);
    inner_->onTimer(ctx);
}

void
TimedPolicy::onAbandon(RuntimeContext &ctx, KernelRecord &rec)
{
    ScopedSpan s(spans_, "runtime.policy.onAbandon", Layer::Runtime);
    inner_->onAbandon(ctx, rec);
}

void
TimedPolicy::onAbandonAll(RuntimeContext &ctx)
{
    ScopedSpan s(spans_, "runtime.policy.onAbandonAll", Layer::Runtime);
    inner_->onAbandonAll(ctx);
}

void
TimedDispatcher::onInvoke(HostProcess &host)
{
    ScopedSpan s(spans_, "runtime.dispatch.onInvoke", Layer::Runtime);
    inner_.onInvoke(host);
}

void
TimedDispatcher::onFinished(HostProcess &host)
{
    ScopedSpan s(spans_, "runtime.dispatch.onFinished", Layer::Runtime);
    inner_.onFinished(host);
}

void
TimedDispatcher::onDrained(HostProcess &host)
{
    ScopedSpan s(spans_, "runtime.dispatch.onDrained", Layer::Runtime);
    inner_.onDrained(host);
}

void
TimedDispatcher::onSliceBoundary(HostProcess &host)
{
    ScopedSpan s(spans_, "runtime.dispatch.onSliceBoundary",
                 Layer::Runtime);
    inner_.onSliceBoundary(host);
}

namespace
{

/** Bind `tracer` to the run's clock, as the library entry points do
 *  before any device is built. */
void
attachTracer(Simulation &sim, TraceRecorder *tracer, SpanRecorder &spans)
{
    if (tracer == nullptr)
        return;
    ScopedSpan s(spans, "obs.attach", Layer::Obs);
    tracer->bindClock(sim.events());
    sim.setTracer(tracer);
}

} // namespace

CoRunResult
runCoRunInstrumented(const BenchmarkSuite &suite,
                     const OfflineArtifacts &artifacts,
                     const CoRunConfig &cfg, SpanRecorder &spans,
                     StackCounters &counters)
{
    if (cfg.kernels.empty())
        throw std::invalid_argument("co-run needs kernels");

    std::unique_ptr<Simulation> sim;
    {
        ScopedSpan s(spans, "sim.build", Layer::Sim);
        sim = std::make_unique<Simulation>(cfg.seed);
    }
    TraceRecorder *tracer = cfg.tracer;
    attachTracer(*sim, tracer, spans);
    if (tracer != nullptr) {
        tracer->setProcessName(
            TraceRecorder::pidRuntime,
            format("runtime (%s)", schedulerKindName(cfg.scheduler)));
    }

    std::unique_ptr<GpuDevice> gpu;
    {
        ScopedSpan s(spans, "gpu.build", Layer::Gpu);
        gpu = std::make_unique<GpuDevice>(*sim, cfg.gpu);
    }

    std::unique_ptr<MpsDispatcher> mps;
    std::unique_ptr<FlepRuntime> flep_runtime;
    std::unique_ptr<TimedDispatcher> timed;
    KernelDispatcher *dispatcher = nullptr;
    {
        ScopedSpan s(spans, "runtime.build", Layer::Runtime);
        switch (cfg.scheduler) {
          case SchedulerKind::Mps:
            mps = std::make_unique<MpsDispatcher>();
            dispatcher = mps.get();
            break;
          case SchedulerKind::FlepHpf:
          case SchedulerKind::FlepFfs: {
            FlepRuntimeConfig rcfg;
            rcfg.models = artifacts.models;
            rcfg.overheads = artifacts.overheads;
            std::unique_ptr<SchedulingPolicy> policy;
            if (cfg.scheduler == SchedulerKind::FlepHpf)
                policy = std::make_unique<HpfPolicy>(cfg.hpf);
            else
                policy = std::make_unique<FfsPolicy>(cfg.ffs);
            flep_runtime = std::make_unique<FlepRuntime>(
                *sim, *gpu,
                std::make_unique<TimedPolicy>(std::move(policy), spans),
                std::move(rcfg));
            timed = std::make_unique<TimedDispatcher>(*flep_runtime, spans);
            dispatcher = timed.get();
            break;
          }
          default:
            throw std::invalid_argument(
                "instrumented co-run supports MPS, FLEP-HPF, FLEP-FFS");
        }
    }

    std::unique_ptr<ShareTracker> tracker;
    if (cfg.shareWindowNs > 0) {
        tracker = std::make_unique<ShareTracker>(cfg.shareWindowNs);
        gpu->onSlotBusy = [&tracker](ProcessId pid, Tick b, Tick e) {
            tracker->trackBusy(pid, b, e);
        };
    }

    std::vector<std::unique_ptr<HostProcess>> hosts;
    {
        ScopedSpan s(spans, "runtime.hosts", Layer::Runtime);
        for (std::size_t i = 0; i < cfg.kernels.size(); ++i) {
            const KernelSpec &spec = cfg.kernels[i];
            const Workload &w = suite.byName(spec.workload);
            auto l_it = artifacts.amortizeL.find(spec.workload);
            HostProcess::ScriptEntry entry;
            entry.workload = &w;
            entry.input = w.input(spec.input);
            entry.priority = spec.priority;
            entry.delayBefore = spec.invokeDelayNs;
            entry.repeats = spec.repeats;
            entry.amortizeL = l_it == artifacts.amortizeL.end()
                ? w.paperAmortizeL()
                : l_it->second;
            hosts.push_back(std::make_unique<HostProcess>(
                *sim, *gpu, *dispatcher, static_cast<ProcessId>(i),
                std::vector<HostProcess::ScriptEntry>{entry}));
            if (tracer != nullptr) {
                const int hp =
                    TraceRecorder::hostPid(static_cast<ProcessId>(i));
                tracer->setProcessName(
                    hp, format("host%zu (%s, prio %d)", i,
                               spec.workload.c_str(), spec.priority));
                tracer->setThreadName(hp, 0, "kernel lifecycle");
            }
        }
        for (auto &host : hosts)
            host->start();
    }

    {
        // The whole event loop is charged to the GPU layer; the
        // runtime spans nested in it come off as children.
        ScopedSpan s(spans, "sim.run", Layer::Gpu);
        if (cfg.horizonNs > 0)
            sim->runUntil(cfg.horizonNs);
        else
            sim->run();
    }
    {
        ScopedSpan s(spans, "gpu.sync", Layer::Gpu);
        gpu->syncMacroState();
    }

    CoRunResult result;
    {
        ScopedSpan s(spans, "runtime.collect", Layer::Runtime);
        for (const auto &host : hosts) {
            for (const auto &inv : host->results())
                result.invocations.push_back(inv);
        }
        std::sort(result.invocations.begin(), result.invocations.end(),
                  [](const InvocationResult &a, const InvocationResult &b) {
                      return a.finishTick < b.finishTick;
                  });
        for (const auto &inv : result.invocations)
            result.makespanNs = std::max(result.makespanNs, inv.finishTick);
        if (tracker) {
            for (ProcessId pid : tracker->processes()) {
                result.shareSeries[pid] = tracker->shareSeries(pid);
                result.overallShare[pid] = tracker->overallShare(pid);
            }
        }
        if (flep_runtime)
            result.preemptions = flep_runtime->preemptionsSignalled();
    }

    counters.events += sim->events().executedCount();
    const MacroStepEngine &macro = gpu->macroEngine();
    counters.fastChunks += macro.fastChunks();
    counters.slowChunks += macro.slowChunks();
    counters.windows += macro.windows();
    counters.invalidations += macro.invalidations();
    if (flep_runtime) {
        const auto &lat = flep_runtime->preemptionLatency().samples();
        counters.preemptLatencyNs.insert(counters.preemptLatencyNs.end(),
                                         lat.begin(), lat.end());
    }
    return result;
}

ClusterResult
runClusterInstrumented(const BenchmarkSuite &suite,
                       const OfflineArtifacts &artifacts,
                       const ClusterConfig &cfg, SpanRecorder &spans,
                       StackCounters &counters, ClusterMetrics &metrics)
{
    std::unique_ptr<Simulation> sim;
    {
        ScopedSpan s(spans, "sim.build", Layer::Sim);
        sim = std::make_unique<Simulation>(cfg.seed);
    }
    attachTracer(*sim, cfg.tracer, spans);

    std::unique_ptr<ClusterScheduler> cluster;
    {
        ScopedSpan s(spans, "cluster.build", Layer::Cluster);
        cluster =
            std::make_unique<ClusterScheduler>(*sim, suite, artifacts, cfg);
        cluster->start();
    }
    {
        // Placement, prediction, resilience and the per-device stacks
        // all run as event callbacks in here; splitting them needs
        // timers inside the program.
        ScopedSpan s(spans, "sim.run", Layer::Sim);
        if (cfg.horizonNs > 0)
            sim->runUntil(cfg.horizonNs);
        else
            sim->run();
    }
    ClusterResult result;
    {
        ScopedSpan s(spans, "cluster.collect", Layer::Cluster);
        result = cluster->collect();
        metrics = computeClusterMetrics(result);
    }

    counters.events += sim->events().executedCount();
    for (const DeviceMacroStats &ms : result.deviceMacroStats) {
        counters.fastChunks += ms.fastChunks;
        counters.slowChunks += ms.slowChunks;
        counters.windows += ms.windows;
        counters.invalidations += ms.invalidations;
    }
    return result;
}

} // namespace perfbench
