/**
 * @file
 * Fault-plan validation and text-format parsing.
 */

#include "sim/fault.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace nocstar::sim
{

namespace
{

/** Tiles a `link` directive can name: tile * 4 + 3 must fit the
 * 32-bit link id. */
constexpr std::uint64_t maxLinkTiles = std::uint64_t{1} << 30;

bool
parseProb(const std::string &tok, double &out)
{
    double v = 0;
    if (!parseDouble(tok, v) || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

/** Direction letter -> GridTopology direction index (E/W/N/S). */
int
directionIndex(const std::string &tok)
{
    if (tok == "E" || tok == "e") return 0;
    if (tok == "W" || tok == "w") return 1;
    if (tok == "N" || tok == "n") return 2;
    if (tok == "S" || tok == "s") return 3;
    return -1;
}

bool
parseDuration(const std::string &tok, Cycle &out)
{
    if (tok == "permanent") {
        out = 0;
        return true;
    }
    std::uint64_t v = 0;
    if (!parseUnsigned(tok, v) || v == 0)
        return false;
    out = v;
    return true;
}

} // namespace

std::vector<std::string>
FaultPlan::validate(
    const std::function<bool(std::uint32_t)> &link_exists) const
{
    std::vector<std::string> errors;
    auto prob = [&errors](double p, const char *what) {
        if (p < 0.0 || p > 1.0)
            errors.push_back(strCat(what, " probability ", p,
                                    " outside [0, 1]"));
    };
    prob(grantLossProb, "grant-loss");
    prob(sliceEccProb, "slice-ecc");
    prob(walkEccProb, "walk-ecc");

    for (std::size_t i = 0; i < linkFaults.size(); ++i) {
        const LinkFaultSpec &f = linkFaults[i];
        if (link_exists && !link_exists(f.link))
            errors.push_back(strCat("link fault #", i, ": tile ",
                                    f.link / 4, " has no ",
                                    "EWNS"[f.link % 4],
                                    " link on this mesh"));
    }
    return errors;
}

FaultPlan
FaultPlan::parse(std::istream &in, const std::string &origin)
{
    FaultPlan plan;
    std::vector<std::string> errors;
    std::string line;
    unsigned lineno = 0;

    auto bad = [&errors, &origin, &lineno](const std::string &why) {
        errors.push_back(strCat(origin, ":", lineno, ": ", why));
    };

    while (std::getline(in, line)) {
        ++lineno;
        if (std::size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word))
            continue; // blank / comment-only line

        std::vector<std::string> args;
        std::string tok;
        while (tokens >> tok)
            args.push_back(tok);

        std::uint64_t v = 0;
        if (word == "seed") {
            if (args.size() != 1 || !parseUnsigned(args[0], v))
                bad("seed needs one non-negative integer");
            else
                plan.seed = v;
        } else if (word == "link") {
            LinkFaultSpec f;
            int dir = args.size() >= 2 ? directionIndex(args[1]) : -1;
            std::uint64_t tile = 0;
            if (args.size() != 4 || !parseUnsigned(args[0], tile) ||
                dir < 0 || !parseUnsigned(args[2], f.start) ||
                !parseDuration(args[3], f.duration)) {
                bad("link needs: TILE E|W|N|S START "
                    "DURATION|permanent");
            } else if (tile >= maxLinkTiles) {
                bad(strCat("link tile ", tile, " beyond the 32-bit link "
                           "id space (tiles < ", maxLinkTiles, ")"));
            } else {
                f.link = static_cast<std::uint32_t>(tile * 4 +
                                                    dir);
                plan.linkFaults.push_back(f);
            }
        } else if (word == "grant-loss") {
            if (args.size() != 1 ||
                !parseProb(args[0], plan.grantLossProb))
                bad("grant-loss needs one probability in [0, 1]");
        } else if (word == "slice-ecc") {
            if (args.size() != 1 ||
                !parseProb(args[0], plan.sliceEccProb))
                bad("slice-ecc needs one probability in [0, 1]");
        } else if (word == "walk-ecc") {
            if (args.size() != 1 ||
                !parseProb(args[0], plan.walkEccProb))
                bad("walk-ecc needs one probability in [0, 1]");
        } else {
            bad(strCat("unknown directive '", word, "'"));
        }
    }

    for (const std::string &e : plan.validate())
        errors.push_back(strCat(origin, ": ", e));

    if (!errors.empty()) {
        std::string all;
        for (const std::string &e : errors)
            all += "\n  " + e;
        fatal("invalid fault plan:", all);
    }
    return plan;
}

FaultPlan
FaultPlan::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open fault plan '", path, "'");
    return parse(in, path);
}

} // namespace nocstar::sim
