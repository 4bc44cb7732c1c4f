/**
 * @file
 * Strict number parsing for every text input surface: the command
 * line, fault plans and trace files. Each parse consumes the whole
 * token or fails, so "12zz", "-1" and "" never read as numbers.
 */

#ifndef NOCSTAR_SIM_PARSE_HH
#define NOCSTAR_SIM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace nocstar::sim
{

/**
 * Full-consumption unsigned parse in @p base (10, or 16 for
 * addresses). The token must start with a digit: a sign or leading
 * blank is refused, as is trailing garbage or a value past 64 bits.
 */
inline bool
parseUnsigned(const std::string &text, std::uint64_t &out, int base = 10)
{
    if (text.empty() || !std::isxdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

/** Full-consumption double parse; rejects trailing garbage. */
inline bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

} // namespace nocstar::sim

#endif // NOCSTAR_SIM_PARSE_HH
