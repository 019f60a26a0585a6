/**
 * @file
 * The instrumented simulation stacks of the traced pass. They are built
 * from the simulator's public constructors exactly as runCoRun() and
 * runCluster() build theirs, with a span around every call into a
 * layer and, for co-runs, forwarding timers around the scheduling
 * policy and the FLEP runtime's KernelDispatcher entry points. The
 * results must stay identicalTo the library entry points' results; the
 * benchmark checks that on every traced simulation.
 */

#ifndef PERFBENCH_STACK_HH
#define PERFBENCH_STACK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hh"
#include "cluster/cluster_metrics.hh"
#include "flep/experiment.hh"
#include "runtime/dispatcher.hh"
#include "runtime/policy.hh"
#include "spans.hh"

namespace perfbench
{

/** Counters read off the stack after one simulation. */
struct StackCounters
{
    std::uint64_t events = 0;
    std::uint64_t fastChunks = 0;
    std::uint64_t slowChunks = 0;
    std::uint64_t windows = 0;
    std::uint64_t invalidations = 0;
    /** Temporal preemption latencies (signal to drained), ticks. */
    std::vector<double> preemptLatencyNs;
};

/** Times every policy callback as a `runtime.policy.*` span. */
class TimedPolicy : public flep::SchedulingPolicy
{
  public:
    TimedPolicy(std::unique_ptr<flep::SchedulingPolicy> inner,
                SpanRecorder &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    const char *name() const override { return inner_->name(); }
    void onArrival(flep::RuntimeContext &ctx,
                   flep::KernelRecord &rec) override;
    void onFinish(flep::RuntimeContext &ctx,
                  flep::KernelRecord &rec) override;
    void onPreempted(flep::RuntimeContext &ctx,
                     flep::KernelRecord &rec) override;
    void onTimer(flep::RuntimeContext &ctx) override;
    void onAbandon(flep::RuntimeContext &ctx,
                   flep::KernelRecord &rec) override;
    void onAbandonAll(flep::RuntimeContext &ctx) override;

  private:
    std::unique_ptr<flep::SchedulingPolicy> inner_;
    SpanRecorder &spans_;
};

/** Times every host-to-runtime call as a `runtime.dispatch.*` span. */
class TimedDispatcher : public flep::KernelDispatcher
{
  public:
    TimedDispatcher(flep::KernelDispatcher &inner, SpanRecorder &spans)
        : inner_(inner), spans_(spans)
    {}

    const char *schedulerName() const override
    {
        return inner_.schedulerName();
    }
    flep::ExecMode execMode() const override { return inner_.execMode(); }
    long sliceTasks(const flep::Workload &w, int amortize_l) const override
    {
        return inner_.sliceTasks(w, amortize_l);
    }
    flep::Tick ipcLatency() const override { return inner_.ipcLatency(); }
    void onInvoke(flep::HostProcess &host) override;
    void onFinished(flep::HostProcess &host) override;
    void onDrained(flep::HostProcess &host) override;
    void onSliceBoundary(flep::HostProcess &host) override;

  private:
    flep::KernelDispatcher &inner_;
    SpanRecorder &spans_;
};

/**
 * runCoRun() rebuilt from public constructors with spans. Supports the
 * MPS, FLEP-HPF and FLEP-FFS schedulers; `cfg.tracer` is honoured and
 * `cfg.tracePath` is ignored.
 */
flep::CoRunResult runCoRunInstrumented(
    const flep::BenchmarkSuite &suite,
    const flep::OfflineArtifacts &artifacts, const flep::CoRunConfig &cfg,
    SpanRecorder &spans, StackCounters &counters);

/** runCluster() rebuilt with spans; also reduces the metrics inside
 *  the collect span. `cfg.tracePath` is ignored. */
flep::ClusterResult runClusterInstrumented(
    const flep::BenchmarkSuite &suite,
    const flep::OfflineArtifacts &artifacts,
    const flep::ClusterConfig &cfg, SpanRecorder &spans,
    StackCounters &counters, flep::ClusterMetrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_STACK_HH
