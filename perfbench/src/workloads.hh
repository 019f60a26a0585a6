/**
 * @file
 * The benchmark's four seeded workloads. Each generator is a pure
 * function of (seed, suite, offline artifacts) and returns the configs
 * one pass hands to the simulator; the simulator sees nothing else.
 * perfbench/README.md records why each workload exists and which
 * layers it loads and bypasses.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "flep/experiment.hh"

namespace perfbench
{

enum class WorkloadId
{
    CorunPriority,      //!< Fig 8: 28 pairs x {MPS, FLEP-HPF}
    CorunFfsShare,      //!< Fig 13: 28 FFS 2:1 infinite-loop pairs
    ClusterOverload,    //!< 4 x K40, load 1.2, preemptive placement
    ClusterFaultyHetero //!< 15/5/15-SM fleet + spare, crash-heavy
};

const std::vector<WorkloadId> &allWorkloads();
const char *workloadName(WorkloadId id);
/** @return false when `name` names no workload. */
bool parseWorkload(const std::string &name, WorkloadId &out);

/** Every simulation one pass runs, in order. Exactly one of the two
 *  lists is non-empty. */
struct PassConfigs
{
    std::vector<flep::CoRunConfig> coruns;
    std::vector<flep::ClusterConfig> clusters;
};

PassConfigs makeWorkload(WorkloadId id, std::uint64_t seed,
                         const flep::BenchmarkSuite &suite,
                         const flep::OfflineArtifacts &artifacts);

/** Paper reference values beside the modelled outcomes. */
constexpr double kPaperHpfSpeedup = 10.1;
constexpr double kRepoHpfSpeedup = 11.2;
constexpr double kFfsTargetShare = 2.0 / 3.0;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
