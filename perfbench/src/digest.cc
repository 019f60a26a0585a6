#include "digest.hh"

#include <cstdio>

namespace perfbench
{

Digest &
Digest::add(const std::string &s)
{
    add(s.size());
    return addBytes(reinterpret_cast<const unsigned char *>(s.data()),
                    s.size());
}

Digest &
Digest::addBytes(const unsigned char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull;
    }
    return *this;
}

std::uint64_t
digestOf(const flep::CoRunResult &r)
{
    Digest d;
    d.add(r.invocations.size());
    for (const auto &inv : r.invocations) {
        d.add(inv.kernel)
            .add(inv.process)
            .add(inv.priority)
            .add(inv.invokeTick)
            .add(inv.finishTick)
            .add(inv.preemptions)
            .add(inv.totalTasks)
            .add(inv.execNs);
    }
    d.add(r.makespanNs).add(r.preemptions);
    d.add(r.shareSeries.size());
    for (const auto &[pid, series] : r.shareSeries)
        d.add(pid).add(series);
    d.add(r.overallShare.size());
    for (const auto &[pid, share] : r.overallShare)
        d.add(pid).add(share);
    return d.value();
}

std::uint64_t
digestOf(const flep::ClusterResult &r)
{
    Digest d;
    d.add(r.outcomes.size());
    for (const auto &o : r.outcomes) {
        d.add(o.job.id)
            .add(o.device)
            .add(o.placed)
            .add(o.completed)
            .add(o.displacedVictim)
            .add(o.placeTick)
            .add(o.finishTick)
            .add(o.preemptions)
            .add(o.execNs)
            .add(o.restarts)
            .add(o.migrations)
            .add(o.lostWorkNs)
            .add(o.failedPermanently)
            .add(o.predictedDemandNs);
    }
    d.add(r.makespanNs)
        .add(r.placements)
        .add(r.preemptivePlacements)
        .add(r.devicePreemptions)
        .add(r.deviceUtilization)
        .add(r.deviceJobCounts)
        .add(r.faultsInjected)
        .add(r.restarts)
        .add(r.migrations)
        .add(r.permanentFailures)
        .add(r.lostWorkNs)
        .add(r.sparesActivated)
        .add(r.spareActivationLatencyNs)
        .add(r.jobsAbsorbedBySpares)
        .add(r.deviceFaultRatePerSec);
    return d.value();
}

std::string
hexDigest(std::uint64_t d)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(d));
    return buf;
}

} // namespace perfbench
