/**
 * @file
 * In-memory host-time spans recorded by the benchmark around each call
 * it makes into a simulator layer. Spans nest: a span opened while
 * another is open becomes its child, and a span's self time is its
 * duration minus the time its children cover. Nothing is written until
 * the caller asks, so recording costs two clock reads and one vector
 * append per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Simulator layers a span can be charged to. */
enum class Layer : std::uint8_t
{
    Setup,      //!< suite build and offline phase
    Sim,        //!< EventQueue (a cluster run's event loop as a whole)
    Gpu,        //!< GpuDevice + MacroStepEngine
    Runtime,    //!< FlepRuntime, HPF/FFS, HostProcess
    Cluster,    //!< ClusterScheduler build and collect
    Obs,        //!< TraceRecorder file write/read
    Count
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

/** Lower-case layer name, as used in metric names. */
const char *layerName(Layer layer);

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    Layer layer = Layer::Sim;
    std::int32_t parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t childNs = 0; //!< summed duration of direct children

    std::int64_t durationNs() const { return endNs - startNs; }
    std::int64_t selfNs() const { return durationNs() - childNs; }
};

class SpanRecorder
{
  public:
    /** Open a span as a child of the innermost open span. */
    std::size_t open(const char *name, Layer layer);

    /** Close the innermost open span, which must be `index`. */
    void close(std::size_t index);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per layer, summed over every recorded span. */
    std::array<std::int64_t, kLayerCount> selfNsByLayer() const;

    /** Count and inclusive duration of spans whose name starts with
     *  `prefix`. */
    std::int64_t totalNs(const std::string &prefix) const;
    std::size_t count(const std::string &prefix) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> openStack_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, Layer layer)
        : rec_(rec), index_(rec.open(name, layer))
    {}
    ~ScopedSpan() { rec_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    std::size_t index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
