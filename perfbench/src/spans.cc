#include "spans.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Setup:
        return "setup";
      case Layer::Sim:
        return "sim";
      case Layer::Gpu:
        return "gpu";
      case Layer::Runtime:
        return "runtime";
      case Layer::Cluster:
        return "cluster";
      case Layer::Obs:
        return "obs";
      case Layer::Count:
        break;
    }
    return "unknown";
}

std::size_t
SpanRecorder::open(const char *name, Layer layer)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = openStack_.empty()
        ? -1
        : static_cast<std::int32_t>(openStack_.back());
    const std::size_t index = spans_.size();
    spans_.push_back(span);
    openStack_.push_back(index);
    // Read the clock last so the append is not charged to the span.
    spans_[index].startNs = nowNs();
    return index;
}

void
SpanRecorder::close(std::size_t index)
{
    const std::int64_t end = nowNs();
    if (openStack_.empty() || openStack_.back() != index)
        throw std::logic_error("spans closed out of order");
    openStack_.pop_back();
    Span &span = spans_[index];
    span.endNs = end;
    if (span.parent >= 0)
        spans_[static_cast<std::size_t>(span.parent)].childNs +=
            span.durationNs();
}

std::array<std::int64_t, kLayerCount>
SpanRecorder::selfNsByLayer() const
{
    std::array<std::int64_t, kLayerCount> out{};
    for (const Span &s : spans_)
        out[static_cast<std::size_t>(s.layer)] += s.selfNs();
    return out;
}

std::int64_t
SpanRecorder::totalNs(const std::string &prefix) const
{
    std::int64_t total = 0;
    for (const Span &s : spans_) {
        if (std::string(s.name).rfind(prefix, 0) == 0)
            total += s.durationNs();
    }
    return total;
}

std::size_t
SpanRecorder::count(const std::string &prefix) const
{
    std::size_t n = 0;
    for (const Span &s : spans_) {
        if (std::string(s.name).rfind(prefix, 0) == 0)
            ++n;
    }
    return n;
}

bool
SpanRecorder::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                     "\"layer\": \"%s\", \"start_ns\": %lld, "
                     "\"dur_ns\": %lld, \"self_ns\": %lld}\n",
                     i, s.parent, s.name, layerName(s.layer),
                     static_cast<long long>(s.startNs - base),
                     static_cast<long long>(s.durationNs()),
                     static_cast<long long>(s.selfNs()));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
