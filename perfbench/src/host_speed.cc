#include "host_speed.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "spans.hh"

namespace perfbench
{

namespace
{

/** Keeps the loop's result alive so the compiler cannot drop it. */
volatile std::uint64_t loopSink = 0;

} // namespace

/**
 * A small discrete-event loop shaped like the simulator's hot path: a
 * binary heap of 2048 pending (time, id) events and random reads and
 * writes into 2 MiB of state, 300k events in a fixed xorshift order.
 */
double
timeReferenceLoop()
{
    const std::int64_t start = nowNs();
    constexpr std::size_t kSlots = 1u << 16;
    constexpr int kSteps = 300000;
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::vector<std::uint64_t> state(kSlots * 4, 0);
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t id = 0; id < 2048; ++id)
        heap.emplace(next() % 1000, id);
    std::uint64_t sum = 0;
    for (int step = 0; step < kSteps; ++step) {
        const auto [when, id] = heap.top();
        heap.pop();
        const std::size_t slot = (next() % kSlots) * 4;
        state[slot] += when;
        state[slot + 1] ^= id;
        sum += state[slot + 2] + state[(id % kSlots) * 4 + 3]++;
        heap.emplace(when + 1 + next() % 1000, id);
    }
    loopSink = loopSink + sum;
    return static_cast<double>(nowNs() - start) / 1e6;
}

double
scaledMs(double raw_ms, double ref_before_ms, double ref_after_ms)
{
    return raw_ms * kReferenceQuietMs /
           (0.5 * (ref_before_ms + ref_after_ms));
}

} // namespace perfbench
