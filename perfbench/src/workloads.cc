#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "cluster/arrival_gen.hh"
#include "common/random.hh"
#include "resilience/fault_plan.hh"

namespace perfbench
{

using namespace flep;

namespace
{

constexpr Priority kBatchPrio = 0;
constexpr Priority kInteractivePrio = 5;

/** Submitted jobs per cluster_overload pass. */
constexpr std::size_t kOverloadJobs = 600;
/** Independent fault scenarios per cluster_faulty_hetero pass, and the
 *  jobs submitted in each. */
constexpr int kFaultScenarios = 6;
constexpr std::size_t kFaultScenarioJobs = 60;

/** splitmix64 finalizer: independent sub-seeds from one seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
predictJobNs(const BenchmarkSuite &suite, const OfflineArtifacts &art,
             const ArrivalClassSpec &cls)
{
    const InputSpec in = suite.byName(cls.workload).input(cls.input);
    return art.models.at(cls.workload).predictNs(in) * cls.repeats;
}

/**
 * An open-loop Poisson arrival list with exactly `jobs` entries, of
 * which exactly round(weights[i] * jobs) belong to class i, in a seeded
 * random order. Fixing both counts keeps the work a pass does from
 * swinging with the seed: drawn as independent per-class streams, the
 * batch share of a 600-job cluster_faulty_hetero pass ranged from 45% to
 * 53% across seeds, and its event count moved with it.
 */
std::vector<ClusterJob>
poissonJobs(const BenchmarkSuite &suite, const OfflineArtifacts &art,
            const std::vector<ArrivalClassSpec> &classes,
            const std::vector<double> &weights, double load, int devices,
            std::size_t jobs, std::uint64_t seed)
{
    double svc_ns = 0.0;
    for (std::size_t i = 0; i < classes.size(); ++i)
        svc_ns += weights[i] * predictJobNs(suite, art, classes[i]);
    const double rate_per_ms =
        load * static_cast<double>(devices) / (svc_ns / 1e6);

    // Arrival times: one stream at the total rate, drawn until it holds
    // `jobs` arrivals. A longer horizon keeps the earlier arrivals, and
    // ids follow arrival order, so the kept prefix has ids 0..jobs-1.
    ClusterArrivalConfig acfg;
    acfg.pattern = ArrivalPattern::Poisson;
    acfg.seed = seed;
    acfg.classes = {classes.front()};
    acfg.classes.front().ratePerMs = rate_per_ms;
    acfg.horizonNs = static_cast<Tick>(
        1.3 * static_cast<double>(jobs) / rate_per_ms * 1e6);
    std::vector<ClusterJob> out = generateClusterJobs(acfg);
    while (out.size() < jobs) {
        acfg.horizonNs *= 2;
        out = generateClusterJobs(acfg);
    }
    out.resize(jobs);

    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const std::size_t n = i + 1 == classes.size()
            ? jobs - labels.size()
            : static_cast<std::size_t>(
                  std::llround(weights[i] * static_cast<double>(jobs)));
        labels.insert(labels.end(), n, i);
    }
    Rng rng(subSeed(seed, 1));
    rng.shuffle(labels);
    for (std::size_t j = 0; j < jobs; ++j) {
        const ArrivalClassSpec &cls = classes[labels[j]];
        out[j].workload = cls.workload;
        out[j].input = cls.input;
        out[j].priority = cls.priority;
        out[j].sloNs = cls.sloNs;
        out[j].repeats = cls.repeats;
    }
    return out;
}

/**
 * Keep primary 0 (a full-width device) alive so one device always
 * drains the queue. Fixing which primary survives, rather than dropping
 * whichever crash comes last, keeps the surviving capacity the same on
 * every seed: at these rates the other primaries crash within the first
 * tens of milliseconds, and a 5-SM survivor would run the rest of the
 * workload at a third of the speed of a 15-SM one.
 */
void
keepFirstPrimary(std::vector<FaultEvent> &plan)
{
    std::erase_if(plan, [](const FaultEvent &ev) {
        return ev.kind == FaultKind::DeviceCrash && ev.device == 0;
    });
}

PassConfigs
corunPriority(std::uint64_t seed)
{
    PassConfigs pass;
    for (const auto &[low_large, high_small] : priorityPairs()) {
        CoRunConfig cfg;
        cfg.kernels = {{low_large, InputClass::Large, 0, 0, 1},
                       {high_small, InputClass::Small, 5, 50000, 1}};
        cfg.seed = subSeed(seed, 0);
        cfg.scheduler = SchedulerKind::Mps;
        pass.coruns.push_back(cfg);
        cfg.scheduler = SchedulerKind::FlepHpf;
        pass.coruns.push_back(cfg);
    }
    return pass;
}

PassConfigs
corunFfsShare(std::uint64_t seed)
{
    PassConfigs pass;
    std::uint64_t salt = 0;
    for (const auto &[low_name, high_name] : priorityPairs()) {
        CoRunConfig cfg;
        cfg.scheduler = SchedulerKind::FlepFfs;
        // FFS weights follow priority: 2 against 1.
        cfg.kernels = {{high_name, InputClass::Small, 2, 10000, -1},
                       {low_name, InputClass::Small, 1, 10000, -1}};
        cfg.horizonNs = 40 * ticksPerMs;
        cfg.shareWindowNs = 10 * ticksPerMs;
        cfg.seed = subSeed(seed, salt++);
        pass.coruns.push_back(cfg);
    }
    return pass;
}

PassConfigs
clusterOverload(std::uint64_t seed, const BenchmarkSuite &suite,
                const OfflineArtifacts &art)
{
    std::vector<ArrivalClassSpec> classes(2);
    classes[0].workload = "VA";
    classes[0].input = InputClass::Large;
    classes[0].priority = kBatchPrio;
    classes[1].workload = "NN";
    classes[1].input = InputClass::Small;
    classes[1].priority = kInteractivePrio;
    classes[1].sloNs =
        static_cast<Tick>(4.0 * predictJobNs(suite, art, classes[1]));

    ClusterConfig cfg;
    cfg.devices = 4;
    cfg.deviceCapacity = 1;
    cfg.placement = PlacementKind::PreemptivePriority;
    cfg.prediction = PredictionSource::Trained;
    cfg.deviceScheduler = SchedulerKind::FlepHpf;
    cfg.seed = subSeed(seed, 0);
    cfg.jobs = poissonJobs(suite, art, classes, {0.6, 0.4}, 1.2,
                           cfg.devices, kOverloadJobs,
                           subSeed(seed, 1));
    PassConfigs pass;
    pass.clusters.push_back(std::move(cfg));
    return pass;
}

ClusterConfig
faultyHeteroRun(std::uint64_t seed, const BenchmarkSuite &suite,
                const OfflineArtifacts &art)
{
    // Batch jobs run two invocations so a drain boundary, and with it
    // a checkpoint, exists mid-job.
    std::vector<ArrivalClassSpec> classes(2);
    classes[0].workload = "VA";
    classes[0].input = InputClass::Large;
    classes[0].priority = kBatchPrio;
    classes[0].repeats = 2;
    classes[1].workload = "NN";
    classes[1].input = InputClass::Small;
    classes[1].priority = kInteractivePrio;
    classes[1].sloNs =
        static_cast<Tick>(6.0 * predictJobNs(suite, art, classes[1]));

    ClusterConfig cfg;
    cfg.devices = 3;
    // Zero host-runtime IPC latency works around a simulator bug: a
    // fault whose abandonAll() lands inside the IPC window after a
    // job's last kernel finished drops the runtime record the finished
    // host's deferred onFinished still needs ("finish from an untracked
    // host"). With 3 us of IPC about one 150-job scenario in twenty hit
    // it; jobs here run for milliseconds, so the outcomes barely move.
    cfg.gpu.ipcNs = 0;
    GpuConfig narrow = cfg.gpu;
    narrow.numSms = 5;
    cfg.deviceGpus = {cfg.gpu, narrow, cfg.gpu, cfg.gpu};
    cfg.spareDevices = 1;
    cfg.deviceCapacity = 2;
    cfg.placement = PlacementKind::LeastLoaded;
    cfg.prediction = PredictionSource::Trained;
    cfg.deviceScheduler = SchedulerKind::FlepHpf;
    cfg.seed = subSeed(seed, 0);
    cfg.jobs = poissonJobs(suite, art, classes, {0.5, 0.5}, 0.45,
                           cfg.devices, kFaultScenarioJobs,
                           subSeed(seed, 1));

    cfg.resilience.checkpoints = true;
    cfg.resilience.migration.enabled = true;
    // Crash-heavy: 180 faults/s, 60% crashes. Faults keep firing past
    // the last arrival while requeued work drains.
    FaultPlanConfig fcfg;
    fcfg.devices = cfg.devices;
    fcfg.horizonNs = cfg.jobs.empty() ? ticksPerMs
                                      : cfg.jobs.back().arrivalNs * 3;
    fcfg.seed = subSeed(seed, 2);
    fcfg.crashRatePerSec = 0.6 * 180.0;
    fcfg.stallRatePerSec = 0.4 * 180.0;
    cfg.resilience.faults = generateFaultPlan(fcfg);
    keepFirstPrimary(cfg.resilience.faults);
    return cfg;
}

/**
 * Where and when the crashes land decides most of a faulty run's
 * outcome, so one pass runs several independent fault scenarios that
 * share the pass's jobs, and the outcomes are their mean.
 */
PassConfigs
clusterFaultyHetero(std::uint64_t seed, const BenchmarkSuite &suite,
                    const OfflineArtifacts &art)
{
    PassConfigs pass;
    for (int s = 0; s < kFaultScenarios; ++s) {
        pass.clusters.push_back(faultyHeteroRun(
            subSeed(seed, static_cast<std::uint64_t>(s)), suite, art));
    }
    return pass;
}

} // namespace

const std::vector<WorkloadId> &
allWorkloads()
{
    static const std::vector<WorkloadId> ids = {
        WorkloadId::CorunPriority, WorkloadId::CorunFfsShare,
        WorkloadId::ClusterOverload, WorkloadId::ClusterFaultyHetero};
    return ids;
}

const char *
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::CorunPriority:
        return "corun_priority";
      case WorkloadId::CorunFfsShare:
        return "corun_ffs_share";
      case WorkloadId::ClusterOverload:
        return "cluster_overload";
      case WorkloadId::ClusterFaultyHetero:
        return "cluster_faulty_hetero";
    }
    return "unknown";
}

bool
parseWorkload(const std::string &name, WorkloadId &out)
{
    for (WorkloadId id : allWorkloads()) {
        if (name == workloadName(id)) {
            out = id;
            return true;
        }
    }
    return false;
}

PassConfigs
makeWorkload(WorkloadId id, std::uint64_t seed,
             const BenchmarkSuite &suite, const OfflineArtifacts &artifacts)
{
    switch (id) {
      case WorkloadId::CorunPriority:
        return corunPriority(seed);
      case WorkloadId::CorunFfsShare:
        return corunFfsShare(seed);
      case WorkloadId::ClusterOverload:
        return clusterOverload(seed, suite, artifacts);
      case WorkloadId::ClusterFaultyHetero:
        return clusterFaultyHetero(seed, suite, artifacts);
    }
    return {};
}

} // namespace perfbench
