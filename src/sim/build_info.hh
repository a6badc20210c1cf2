/**
 * @file
 * Build provenance stamped into every emitted JSON artifact.
 *
 * Comparing two documents (relief_compare --diff) only attributes a
 * change to the code if each document records what produced it. CMake
 * captures the git sha at configure time plus the compiler identity,
 * build type, and flags, and passes them as compile definitions;
 * every artifact writer (stats, serve, trace, pressure, hostprof,
 * kernels) embeds the result as a `build_info` object, which
 * scripts/check_bench_schema.py requires.
 *
 * The sha is refreshed on reconfigure, not on every commit — close
 * enough for attribution, and free at build time.
 */

#ifndef RELIEF_SIM_BUILD_INFO_HH
#define RELIEF_SIM_BUILD_INFO_HH

#include <iosfwd>

namespace relief
{

/** Git sha the build was configured from ("unknown" outside git). */
const char *buildGitSha();

/** Compiler id, e.g. "GNU" or "Clang". */
const char *buildCompilerId();

/** Compiler version, e.g. "13.2.0". */
const char *buildCompilerVersion();

/** CMake build type ("Release", "Debug", ... or "unspecified"). */
const char *buildType();

/** CMAKE_CXX_FLAGS the build was configured with. */
const char *buildCxxFlags();

/**
 * Write the canonical `build_info` JSON object (no trailing newline).
 * @p indent is the column the object's opening brace sits at; nested
 * lines are indented two further.
 */
void writeBuildInfoJson(std::ostream &os, int indent = 0);

} // namespace relief

#endif // RELIEF_SIM_BUILD_INFO_HH
