/**
 * @file
 * Statistics digests of each workload at relbench::defaultSeed. A
 * change that keeps the simulated model bit-identical keeps these; a
 * change that alters the model on purpose re-pins them with
 * `relbench_driver --print-digests`.
 */

#ifndef RELBENCH_REFERENCE_DIGESTS_HH
#define RELBENCH_REFERENCE_DIGESTS_HH

#include <cstdint>

namespace relbench
{

constexpr std::uint64_t referenceDigestLongCdl = 0x6dca3979ed0b7270ULL;
constexpr std::uint64_t referenceDigestFunctionalCdghl = 0xe1cd98d214ae2d43ULL;
constexpr std::uint64_t referenceDigestServeBursty = 0x5c1199cb7c32cdb1ULL;

} // namespace relbench

#endif // RELBENCH_REFERENCE_DIGESTS_HH
