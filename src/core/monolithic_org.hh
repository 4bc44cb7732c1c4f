/**
 * @file
 * Monolithic shared last-level TLB (Fig 1(b)/(c)): one large banked
 * structure placed at one end of the chip, reached over a multi-hop
 * mesh or a SMART NoC. This is the organization of the original shared
 * L2 TLB proposal the paper uses as its first comparison point.
 */

#ifndef NOCSTAR_CORE_MONOLITHIC_ORG_HH
#define NOCSTAR_CORE_MONOLITHIC_ORG_HH

#include <memory>

#include "core/organization.hh"
#include "noc/network.hh"

namespace nocstar::core
{

/**
 * Banked monolithic shared L2 TLB behind a baseline NoC. Banks are
 * the home arrays, 4 KB-granule interleaved.
 */
class MonolithicOrg final : public TlbOrganization
{
  public:
    MonolithicOrg(const OrgConfig &config, OrgContext context,
                  stats::StatGroup *parent = nullptr);

    void translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                   TranslationDone done) override;

    void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                   const std::vector<CoreId> &sharers, Cycle now,
                   ShootdownDone on_complete) override;

    /** Tile adjacent to which the monolithic structure is placed. */
    CoreId structureTile() const { return structureTile_; }

    Cycle bankLatency() const { return bankLatency_; }

    /**
     * SRAM lookup latency of the structure on @p num_cores cores.
     * Banking multiplies ports (each bank accepts its own request per
     * cycle) but the read still traverses the full structure's
     * decode / H-tree / sense path, so the latency is that of the
     * whole num_cores x l2Entries array (paper Fig 11a: ~15 cycles
     * at 32x, hops = 0).
     */
    static Cycle lookupLatency(unsigned num_cores);

  private:
    noc::GridTopology topo_;
    std::unique_ptr<noc::Network> network_;
    CoreId structureTile_;
    Cycle bankLatency_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_MONOLITHIC_ORG_HH
