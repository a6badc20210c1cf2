/**
 * @file
 * Minimal JSON writing helpers shared by the stats JSON exporter and
 * the Chrome trace writer. Only escaping and number formatting live
 * here — document structure stays with each writer.
 */

#ifndef RELIEF_STATS_JSON_HH
#define RELIEF_STATS_JSON_HH

#include <string>
#include <string_view>

namespace relief
{

/**
 * Escape @p in for embedding inside a JSON string literal: quotes,
 * backslashes, and every control character below 0x20 (newline, tab,
 * carriage return, ... as their two-character escapes, anything else
 * as \u00XX). Without the control-character handling a task label
 * containing a newline produces JSON that Perfetto refuses to load.
 */
std::string jsonEscape(std::string_view in);

/**
 * Render @p value as a JSON number. JSON has no Inf/NaN literals, so
 * non-finite values are emitted as null (the convention Chrome's
 * trace viewer accepts); integral values print without an exponent.
 */
std::string jsonNumber(double value);

} // namespace relief

#endif // RELIEF_STATS_JSON_HH
