#include "stats/json.hh"

#include <cmath>
#include <cstdio>

namespace relief
{

std::string
jsonEscape(std::string_view in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        unsigned char uc = static_cast<unsigned char>(c);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (uc < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", uc);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

} // namespace relief
