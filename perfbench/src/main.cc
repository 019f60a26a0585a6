/**
 * @file
 * perfbench: the simulator benchmark's command line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *
 * Prints the run's notes and every metric by name with its unit, then,
 * as the last line, one JSON object with the keys correct, attempted,
 * failed and metrics. perfbench/run.py builds and invokes it.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"
#include "common/logging.hh"

namespace
{

bool
parseUnsigned(const char *s, unsigned long long &out)
{
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "workloads:",
                 why);
    for (perfbench::WorkloadId id : perfbench::allWorkloads())
        std::fprintf(stderr, " %s", perfbench::workloadName(id));
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (value == nullptr)
            return usage(("missing value for " + flag).c_str());
        unsigned long long n = 0;
        if (flag == "--workload") {
            if (!perfbench::parseWorkload(value, opt.workload))
                return usage("unknown workload");
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, n))
                return usage("--seed takes a non-negative integer");
            opt.seed = n;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 3600)
                return usage("--seconds takes an integer in [1, 3600]");
            opt.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, n) || n > 1)
                return usage("--trace takes 0 or 1");
            opt.trace = n == 1;
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");

    flep::setLogLevel(flep::LogLevel::Quiet);
    try {
        const perfbench::Report report = perfbench::runBenchmark(opt);
        for (const std::string &note : report.notes)
            std::printf("# %s\n", note.c_str());
        for (const perfbench::Metric &m : report.metrics)
            std::printf("%-34s %22.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("%s\n", perfbench::reportJson(report).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
