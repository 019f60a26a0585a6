/**
 * @file
 * Tests of the benchmark's own code: seeded generators, digests, the
 * instrumented stacks' equivalence with the library entry points, span
 * accounting, host-speed scaling and metric names. Run with
 * `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench.hh"
#include "digest.hh"
#include "host_speed.hh"
#include "spans.hh"
#include "stack.hh"
#include "workloads.hh"

namespace perfbench
{
namespace
{

using namespace flep;

struct Env
{
    BenchmarkSuite suite;
    OfflineArtifacts artifacts =
        runOfflinePhase(suite, GpuConfig::keplerK40(), 100, 50, 999);
};

const Env &
env()
{
    static const Env e;
    return e;
}

/**
 * A workload's pass cut to its first `sims` simulations, each cluster
 * keeping its first `jobs` arrivals (ids follow arrival order, so the
 * prefix is a valid job list). Keeps every test under a few seconds.
 */
PassConfigs
smallPass(WorkloadId id, std::uint64_t seed, std::size_t sims = 4,
          std::size_t jobs = 40)
{
    PassConfigs p = makeWorkload(id, seed, env().suite, env().artifacts);
    if (p.coruns.size() > sims)
        p.coruns.resize(sims);
    if (p.clusters.size() > sims)
        p.clusters.resize(sims);
    for (ClusterConfig &cfg : p.clusters) {
        if (cfg.jobs.size() > jobs)
            cfg.jobs.resize(jobs);
    }
    return p;
}

TEST(PerfbenchWorkloads, DigestStableAcrossInvocationsWithOneSeed)
{
    for (WorkloadId id : allWorkloads()) {
        const PassConfigs a = smallPass(id, 7, 2);
        const PassConfigs b = smallPass(id, 7, 2);
        EXPECT_EQ(untracedPassDigest(env().suite, env().artifacts, a),
                  untracedPassDigest(env().suite, env().artifacts, b))
            << workloadName(id);
    }
}

TEST(PerfbenchWorkloads, SeedChangesTheArrivalList)
{
    for (WorkloadId id : {WorkloadId::ClusterOverload,
                          WorkloadId::ClusterFaultyHetero}) {
        const auto jobs = [&](std::uint64_t seed) {
            const PassConfigs p =
                makeWorkload(id, seed, env().suite, env().artifacts);
            std::vector<Tick> arrivals;
            for (const ClusterConfig &cfg : p.clusters) {
                for (const ClusterJob &j : cfg.jobs)
                    arrivals.push_back(j.arrivalNs);
            }
            return arrivals;
        };
        EXPECT_EQ(jobs(1), jobs(1)) << workloadName(id);
        EXPECT_NE(jobs(1), jobs(2)) << workloadName(id);
        // 600 jobs, or six scenarios of 60.
        EXPECT_EQ(jobs(1).size(),
                  id == WorkloadId::ClusterOverload ? 600u : 360u);
    }
    const auto seeds = [&](std::uint64_t seed) {
        std::vector<std::uint64_t> out;
        for (const auto &cfg :
             makeWorkload(WorkloadId::CorunFfsShare, seed, env().suite,
                          env().artifacts)
                 .coruns)
            out.push_back(cfg.seed);
        return out;
    };
    EXPECT_NE(seeds(1), seeds(2));
}

TEST(PerfbenchWorkloads, ClassMixIsExactOnEverySeed)
{
    // 600 jobs per pass, 60/40 on cluster_overload; six 60-job
    // scenarios, 50/50 each, on cluster_faulty_hetero.
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto batch = [&](WorkloadId id) {
            std::vector<long> counts;
            for (const ClusterConfig &cfg :
                 makeWorkload(id, seed, env().suite, env().artifacts)
                     .clusters) {
                long n = 0;
                for (const ClusterJob &j : cfg.jobs)
                    n += j.workload == "VA" ? 1 : 0;
                counts.push_back(n);
            }
            return counts;
        };
        EXPECT_EQ(batch(WorkloadId::ClusterOverload),
                  std::vector<long>({360}));
        EXPECT_EQ(batch(WorkloadId::ClusterFaultyHetero),
                  std::vector<long>(6, 30));
    }
}

TEST(PerfbenchStack, InstrumentedCoRunIsIdenticalToRunCoRun)
{
    std::vector<CoRunConfig> cfgs;
    for (WorkloadId id :
         {WorkloadId::CorunPriority, WorkloadId::CorunFfsShare}) {
        const PassConfigs p = smallPass(id, 3);
        cfgs.insert(cfgs.end(), p.coruns.begin(), p.coruns.end());
    }
    ASSERT_EQ(cfgs.size(), 8u); // 2 x {MPS, HPF} + 4 x FFS
    for (const CoRunConfig &base : cfgs) {
        const CoRunResult want =
            runCoRun(env().suite, env().artifacts, base);
        for (bool traced : {false, true}) {
            CoRunConfig cfg = base;
            TraceRecorder rec;
            if (traced)
                cfg.tracer = &rec;
            SpanRecorder spans;
            StackCounters counters;
            const CoRunResult got = runCoRunInstrumented(
                env().suite, env().artifacts, cfg, spans, counters);
            EXPECT_TRUE(got.identicalTo(want))
                << schedulerKindName(cfg.scheduler) << " traced "
                << traced;
            EXPECT_EQ(digestOf(got), digestOf(want));
            EXPECT_GT(counters.events, 0u);
            if (cfg.scheduler != SchedulerKind::Mps) {
                EXPECT_GT(spans.count("runtime.policy."), 0u);
            }
        }
    }
}

TEST(PerfbenchStack, InstrumentedClusterIsIdenticalToRunCluster)
{
    for (WorkloadId id : {WorkloadId::ClusterOverload,
                          WorkloadId::ClusterFaultyHetero}) {
        ClusterConfig cfg = smallPass(id, 5).clusters.at(0);
        const ClusterResult want =
            runCluster(env().suite, env().artifacts, cfg);
        TraceRecorder rec;
        cfg.tracer = &rec;
        SpanRecorder spans;
        StackCounters counters;
        ClusterMetrics metrics;
        const ClusterResult got = runClusterInstrumented(
            env().suite, env().artifacts, cfg, spans, counters, metrics);
        EXPECT_TRUE(got.identicalTo(want)) << workloadName(id);
        EXPECT_EQ(digestOf(got), digestOf(want));
        EXPECT_GT(rec.eventCount(), 0u);
    }
}

TEST(PerfbenchSpans, SelfTimeIsDurationMinusChildren)
{
    SpanRecorder spans;
    {
        ScopedSpan outer(spans, "sim.run", Layer::Gpu);
        ScopedSpan inner(spans, "runtime.dispatch.onInvoke",
                         Layer::Runtime);
    }
    ASSERT_EQ(spans.spans().size(), 2u);
    const Span &outer = spans.spans()[0];
    const Span &inner = spans.spans()[1];
    EXPECT_EQ(inner.parent, 0);
    EXPECT_EQ(outer.childNs, inner.durationNs());
    const auto self = spans.selfNsByLayer();
    EXPECT_EQ(self[static_cast<std::size_t>(Layer::Gpu)] +
                  self[static_cast<std::size_t>(Layer::Runtime)],
              outer.durationNs());
}

TEST(PerfbenchHostSpeed, ScalesByTheMeanOfTheSurroundingLoops)
{
    // Loops at twice their quiet time: the host ran at half speed.
    EXPECT_DOUBLE_EQ(
        scaledMs(100.0, 2 * kReferenceQuietMs, 2 * kReferenceQuietMs), 50.0);
    EXPECT_DOUBLE_EQ(scaledMs(90.0, kReferenceQuietMs, 2 * kReferenceQuietMs),
                     60.0);
    EXPECT_GT(timeReferenceLoop(), 0.0);
}

TEST(PerfbenchMetrics, NamesAreWellFormedAndUnique)
{
    std::set<std::string> seen;
    bool has_setup = false;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *list) {
            const std::string name = m.name;
            ASSERT_FALSE(name.empty());
            EXPECT_LE(name.size(), 64u);
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0])))
                << name;
            for (char c : name) {
                EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                            c == '_' || c == '.' || c == '-')
                    << name;
            }
            EXPECT_TRUE(seen.insert(name).second) << name;
            has_setup = has_setup || name == "setup_s";
        }
    }
    EXPECT_TRUE(has_setup);
    EXPECT_LE(perLayerMetrics().size(), 128u);
    EXPECT_LE(endToEndMetrics().size(), 16u);
}

} // namespace
} // namespace perfbench
