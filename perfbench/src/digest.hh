/**
 * @file
 * 64-bit FNV-1a digests over every field that CoRunResult::identicalTo
 * and ClusterResult::identicalTo compare, so two runs can be compared
 * by one printed number (doubles hash by bit pattern).
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hh"
#include "flep/experiment.hh"

namespace perfbench
{

class Digest
{
  public:
    template <typename T>
    Digest &
    add(const T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        return addBytes(bytes, sizeof(T));
    }
    Digest &add(const std::string &s);
    template <typename T>
    Digest &
    add(const std::vector<T> &v)
    {
        add(v.size());
        for (const T &x : v)
            add(x);
        return *this;
    }

    std::uint64_t value() const { return h_; }

  private:
    Digest &addBytes(const unsigned char *p, std::size_t n);

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digestOf(const flep::CoRunResult &r);
std::uint64_t digestOf(const flep::ClusterResult &r);

/** "0x"-prefixed 16-digit hex. */
std::string hexDigest(std::uint64_t d);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
