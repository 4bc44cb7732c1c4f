/**
 * @file
 * NOCSTAR: distributed shared L2 TLB slices over the single-cycle
 * circuit-switched fabric (paper §III). Area-normalized 920-entry
 * slices; remote accesses follow the Fig 10 timeline: path setup,
 * single-cycle traversal, slice lookup, (speculative) response path
 * setup, single-cycle response traversal.
 */

#ifndef NOCSTAR_CORE_NOCSTAR_ORG_HH
#define NOCSTAR_CORE_NOCSTAR_ORG_HH

#include <memory>
#include <vector>

#include "core/interconnect.hh"
#include "core/organization.hh"

namespace nocstar::core
{

/**
 * The paper's proposed organization.
 */
class NocstarOrg : public TlbOrganization
{
  public:
    NocstarOrg(const OrgConfig &config, OrgContext context,
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

    void
    syncFaultStats(Cycle now) override
    {
        fabric_->syncFaultStats(now);
    }

    /** Home slice: 4 KB-granule interleaving (same as distributed). */
    CoreId
    sliceOf(Addr vaddr) const
    {
        return static_cast<CoreId>(
            (vaddr >> pageShift(PageSize::FourKB)) % config_.numCores);
    }

    tlb::SetAssocTlb &sliceArray(CoreId slice)
    {
        return *slices_.at(slice);
    }

    // One home array per slice tile.
    unsigned numHomeArrays() const override { return config_.numCores; }

    unsigned
    homeArrayOf(CoreId core, Addr vaddr) const override
    {
        (void)core;
        return static_cast<unsigned>(sliceOf(vaddr));
    }

    tlb::SetAssocTlb &array(unsigned index) override
    {
        return *slices_.at(index);
    }

    CoreId
    walkCoreFor(CoreId requester, Addr vaddr) const override
    {
        return config_.ptwPlacement == PtwPlacement::Remote
            ? sliceOf(vaddr) : requester;
    }

    Interconnect &fabric() { return *fabric_; }

    Cycle sliceLatency() const { return sliceLatency_; }

  private:
    /**
     * Continue after a slice lookup that hit: respond to the core.
     * The @p ecc / @p degraded flags below accumulate the outcome
     * classification along the continuation chain (corrupt home-array
     * read; any leg so far fell back to the maintenance mesh) and end
     * up on the TranslationResult.
     */
    void respondHit(CoreId core, CoreId slice, tlb::TlbEntry entry,
                    Cycle lookup_done, Cycle now, bool degraded,
                    TranslationDone &&done);

    /** Continue after a slice miss per the walk-placement policy. */
    void handleMiss(CoreId core, CoreId slice, ContextId ctx, Addr vaddr,
                    Cycle lookup_done, Cycle now, bool ecc, bool degraded,
                    TranslationDone &&done);

    void finishWithWalk(CoreId walk_core, CoreId requester, CoreId slice,
                        ContextId ctx, Addr vaddr, Cycle start, Cycle now,
                        bool ecc, bool degraded, TranslationDone &&done);

    noc::GridTopology topo_;
    std::unique_ptr<Interconnect> fabric_;
    std::vector<std::unique_ptr<tlb::SetAssocTlb>> slices_;
    std::vector<Cycle> leaderNextFree_;
    Cycle sliceLatency_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_NOCSTAR_ORG_HH
