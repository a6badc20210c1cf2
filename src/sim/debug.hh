/**
 * @file
 * Runtime debug flags, in the spirit of gem5's --debug-flags.
 *
 * Models instrument themselves with DPRINTF(Flag, ...) statements that
 * are compiled in but cost one boolean test when the flag is off. At
 * runtime, `relief_sim --debug-flags Sched,Dma` (or setDebugFlags())
 * turns categories on; enabled statements print sim-time-stamped lines
 *
 *     1234567: soc.manager: launching canny.blur on convolution0
 *
 * through the logging sink (sim/logging.hh), so tests can capture them
 * with setLogSink().
 *
 * DPRINTF must be used inside a SimObject member (it calls now() and
 * name()); free functions and non-SimObject classes use DPRINTFN and
 * supply the tick and source name themselves.
 */

#ifndef RELIEF_SIM_DEBUG_HH
#define RELIEF_SIM_DEBUG_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace relief
{

/** Debug categories (keep debugFlagName() in sync). */
enum class DebugFlag : std::size_t
{
    Sched,  ///< Scheduler: ready inserts, promotion decisions, launches.
    Dma,    ///< DMA engines: transfer issue and completion.
    Mem,    ///< Main memory / banked memory traffic.
    Fabric, ///< Interconnect reservations.
    Stats,  ///< Stat registry registration and dumps.
    Event,  ///< Event queue: per-event firing trace + dynamic labels.
    Serve,  ///< Serving layer: admissions, kept traces, SLO alerts.
};

/** Number of debug flags (array sizing). */
constexpr std::size_t numDebugFlags = 7;

/** Printable name of @p flag ("Sched", "Dma", ...). */
const char *debugFlagName(DebugFlag flag);

/** All flags, for enumeration in help text and tests. */
const std::vector<DebugFlag> &allDebugFlags();

namespace detail
{
/** The calling thread's enabled flags, bit i = DebugFlag i. Only the
 *  setters below write it. Constant-initialized, so reading it is a
 *  plain thread-local load with no initialization guard. */
extern constinit thread_local std::uint32_t debugFlagBits;
} // namespace detail

/** True when @p flag is enabled. */
inline bool
debugFlagEnabled(DebugFlag flag)
{
    return (detail::debugFlagBits >> std::size_t(flag)) & 1u;
}

/** Enable or disable one flag. */
void setDebugFlag(DebugFlag flag, bool enabled = true);

/** Resolve @p name; returns false (and leaves flags untouched) when
 *  the name is unknown. */
bool setDebugFlagByName(const std::string &name, bool enabled = true);

/**
 * Enable a comma-separated list of flags ("Sched,Dma"). Unknown names
 * raise FatalError listing the valid flags, so a CLI typo fails fast.
 */
void setDebugFlags(const std::string &csv);

/** Disable every flag (test isolation). */
void clearDebugFlags();

/**
 * Flag state is thread-local (each parallel experiment owns its own
 * set; see core/parallel.hh). These pack/unpack the calling thread's
 * flags as a bitmask so a runner can propagate them into workers.
 */
std::uint32_t debugFlagMask();
void setDebugFlagMask(std::uint32_t mask);

/** Emit one debug line: "<tick>: <who>: <msg>" at Debug level. */
void debugPrint(DebugFlag flag, Tick when, const std::string &who,
                const std::string &msg);

/** Sim-time-stamped debug print from a SimObject member. */
#define DPRINTF(flag, ...)                                                  \
    do {                                                                    \
        if (::relief::debugFlagEnabled(::relief::DebugFlag::flag)) {        \
            ::relief::debugPrint(::relief::DebugFlag::flag, now(), name(),  \
                                 ::relief::detail::concat(__VA_ARGS__));    \
        }                                                                   \
    } while (0)

/** DPRINTF for call sites without now()/name() (policies, helpers). */
#define DPRINTFN(flag, when, who, ...)                                      \
    do {                                                                    \
        if (::relief::debugFlagEnabled(::relief::DebugFlag::flag)) {        \
            ::relief::debugPrint(::relief::DebugFlag::flag, (when), (who),  \
                                 ::relief::detail::concat(__VA_ARGS__));    \
        }                                                                   \
    } while (0)

} // namespace relief

#endif // RELIEF_SIM_DEBUG_HH
