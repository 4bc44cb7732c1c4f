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
#include <vector>

#include "core/organization.hh"
#include "noc/network.hh"

namespace nocstar::core
{

/**
 * Banked monolithic shared L2 TLB behind a baseline NoC.
 */
class MonolithicOrg : public TlbOrganization
{
  public:
    MonolithicOrg(const OrgConfig &config, OrgContext context,
                  stats::StatGroup *parent = nullptr);

    void translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                   TranslationDone done) override;

    void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                   const std::vector<CoreId> &sharers, Cycle now,
                   ShootdownDone on_complete) override;

    void flushAll() override;

    void preloadShared(ContextId ctx, Addr vaddr,
                       const mem::Translation &t) override;

    std::uint64_t totalEntries() const override;

    /** Tile adjacent to which the monolithic structure is placed. */
    CoreId structureTile() const { return structureTile_; }

    /** Bank index for a virtual address (4 KB-granule interleaving). */
    unsigned
    bankOf(Addr vaddr) const
    {
        return static_cast<unsigned>(
            (vaddr >> pageShift(PageSize::FourKB)) % config_.banks);
    }

    tlb::SetAssocTlb &bankArray(unsigned bank) { return *banks_.at(bank); }

    // One home array per bank.
    unsigned numHomeArrays() const override { return config_.banks; }

    unsigned
    homeArrayOf(CoreId core, Addr vaddr) const override
    {
        (void)core;
        return bankOf(vaddr);
    }

    tlb::SetAssocTlb &array(unsigned index) override
    {
        return *banks_.at(index);
    }

    Cycle bankLatency() const { return bankLatency_; }

  private:
    /** One-way latency core -> structure (or back), tracking stats. */
    Cycle traverse(CoreId from, CoreId to, Cycle now);

    noc::GridTopology topo_;
    std::unique_ptr<noc::Network> network_;
    std::vector<std::unique_ptr<tlb::SetAssocTlb>> banks_;
    CoreId structureTile_;
    Cycle bankLatency_;
    energy::NocStyle energyStyle_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_MONOLITHIC_ORG_HH
