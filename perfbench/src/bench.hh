/**
 * @file
 * One benchmark run: set-up, timed untraced and traced passes over a
 * workload, output checks, and the metrics the run reports.
 *
 * With trace off, the run alternates untraced passes (library entry
 * points, no recorder) and traced passes (the same entry points
 * recording into an in-memory TraceRecorder) until its time is spent,
 * and reports host times as the fastest of N. With trace on, it times
 * the same alternating passes for the recorder's overhead, then runs one
 * instrumented pass (stack.hh) and reports the per-layer metrics,
 * splitting the instrumented pass's wall time into per-layer self times
 * plus an explicit remainder.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported with trace off, on every workload. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Reported with trace on, on every workload. */
const std::vector<MetricSpec> &perLayerMetrics();

struct Options
{
    WorkloadId workload = WorkloadId::CorunPriority;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the span dump and the trace round-trip file. */
    std::string outDir = ".";
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct Report
{
    long attempted = 0;
    long failed = 0;
    std::vector<Metric> metrics;
    /** Digest of every simulation result of an untraced pass, and of
     *  a traced one; equal unless tracing perturbed a result. */
    std::uint64_t digest = 0;
    std::uint64_t tracedDigest = 0;
    /** Human-readable lines printed ahead of the result object. */
    std::vector<std::string> notes;
};

Report runBenchmark(const Options &opt);

/** The result object: the last line the benchmark prints. */
std::string reportJson(const Report &report);

/** The digest a run prints, of one untraced pass over `pass`. */
std::uint64_t untracedPassDigest(const flep::BenchmarkSuite &suite,
                                 const flep::OfflineArtifacts &artifacts,
                                 const PassConfigs &pass);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
