/**
 * @file
 * Trace file implementation.
 */

#include "workload/trace.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"
#include "sim/parse.hh"

namespace nocstar::workload
{

TraceFile
TraceFile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '", path, "'");

    TraceFile trace;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        // Exactly `THREAD HEXADDR`: a sign, a non-hex digit or a third
        // field makes the record malformed.
        std::istringstream fields(line);
        std::string thread_text, vaddr_text, extra;
        std::uint64_t thread = 0;
        Addr vaddr = 0;
        if (!(fields >> thread_text >> vaddr_text) || (fields >> extra) ||
            !sim::parseUnsigned(thread_text, thread) ||
            thread > std::numeric_limits<unsigned>::max() ||
            !sim::parseUnsigned(vaddr_text, vaddr, 16))
            fatal("malformed trace record '", line, "' at ", path, ":",
                  line_no, " (expected THREAD HEXADDR)");
        trace.append(static_cast<unsigned>(thread), vaddr);
    }
    return trace;
}

void
TraceFile::append(unsigned thread, Addr vaddr)
{
    perThread_[thread].push_back(vaddr);
    ++total_;
}

void
TraceFile::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace file '", path, "'");
    out << "# nocstar trace: <thread> <hex-vaddr>\n";
    for (unsigned thread : threads()) {
        for (Addr vaddr : perThread_.at(thread))
            out << thread << " " << std::hex << vaddr << std::dec
                << "\n";
    }
}

std::vector<unsigned>
TraceFile::threads() const
{
    std::vector<unsigned> ids;
    ids.reserve(perThread_.size());
    for (const auto &[thread, records] : perThread_) {
        if (!records.empty())
            ids.push_back(thread);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

std::size_t
TraceFile::recordCount(unsigned thread) const
{
    auto it = perThread_.find(thread);
    return it == perThread_.end() ? 0 : it->second.size();
}

std::unique_ptr<AddressSource>
TraceFile::sourceFor(unsigned thread) const
{
    auto it = perThread_.find(thread);
    if (it == perThread_.end() || it->second.empty())
        fatal("trace has no records for thread ", thread);
    return std::make_unique<TraceSource>(it->second);
}

} // namespace nocstar::workload
