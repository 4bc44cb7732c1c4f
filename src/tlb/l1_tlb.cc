/**
 * @file
 * L1 TLB group implementation.
 */

#include "tlb/l1_tlb.hh"

#include <algorithm>
#include <cmath>

namespace nocstar::tlb
{

std::uint32_t
L1TlbGroup::scaled(std::uint32_t n, double scale, std::uint32_t assoc)
{
    auto v = static_cast<std::uint32_t>(
        std::llround(static_cast<double>(n) * scale));
    v = std::max(v, assoc);
    // Keep whole sets.
    v -= v % assoc;
    return std::max(v, assoc);
}

L1TlbGroup::L1TlbGroup(const std::string &name, const L1TlbConfig &config,
                       stats::StatGroup *parent)
    : stats::StatGroup(name, parent),
      arrays_{std::make_unique<SetAssocTlb>(
                  "l1_4k",
                  scaled(config.entries4k, config.scale, config.assoc4k),
                  config.assoc4k, this),
              std::make_unique<SetAssocTlb>(
                  "l1_2m",
                  scaled(config.entries2m, config.scale, config.assoc2m),
                  config.assoc2m, this),
              std::make_unique<SetAssocTlb>(
                  "l1_1g",
                  scaled(config.entries1g, config.scale, config.assoc1g),
                  config.assoc1g, this)}
{
}

} // namespace nocstar::tlb
