/**
 * @file
 * A fixed reference loop that measures how fast the host runs, so host
 * times taken at different moments on a shared machine can be compared.
 *
 * On a shared 4-core KVM guest the speed of a core drifts by 20-40%
 * over minutes with the neighbours' load (clock frequency, shared
 * caches, SMT siblings). The guest sees almost none of it as steal
 * time: thread CPU time moves with wall time. Taking the fastest of many
 * passes does not help when a slow spell outlasts the run. So the
 * benchmark times this loop beside every timed pass and scales the pass
 * to the quiet host:
 *
 *     scaled = raw * kReferenceQuietMs / (mean of the loops around it)
 *
 * The loop uses nothing from the simulator, so a change to the simulator
 * moves scaled times exactly as it moves raw ones.
 */

#ifndef PERFBENCH_HOST_SPEED_HH
#define PERFBENCH_HOST_SPEED_HH

namespace perfbench
{

/** The reference loop's host ms on a quiet 4-core x86-64 KVM guest
 *  (its fastest reading there), the speed scaled times refer to. */
constexpr double kReferenceQuietMs = 30.0;

/** Run the reference loop once; returns its host ms. */
double timeReferenceLoop();

/** `raw_ms` scaled to the quiet host, given the reference loop's ms
 *  just before and just after it. */
double scaledMs(double raw_ms, double ref_before_ms, double ref_after_ms);

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HH
