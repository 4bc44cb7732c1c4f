/**
 * @file
 * Distributed shared last-level TLB (Fig 1(d)): one slice per tile,
 * VPN-interleaved, reached over a traditional multi-hop mesh (the
 * paper's "distributed" comparison point) or a zero-latency ideal
 * interconnect (the "ideal" upper bound in Figs 12/13/15).
 */

#ifndef NOCSTAR_CORE_DISTRIBUTED_ORG_HH
#define NOCSTAR_CORE_DISTRIBUTED_ORG_HH

#include <memory>
#include <vector>

#include "core/organization.hh"
#include "noc/network.hh"

namespace nocstar::core
{

/**
 * Per-core shared slices over a baseline network.
 */
class DistributedOrg : public TlbOrganization
{
  public:
    DistributedOrg(const OrgConfig &config, OrgContext context,
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

    /**
     * Home slice of a virtual address: 4 KB-granule interleaving on
     * low VPN bits ("simple indexing using bits from the virtual
     * address", §III-A). A 2 MB entry is cached in the slice of the
     * granule that missed, so hot superpages may be replicated across
     * slices -- the price of keeping lookups single-probe.
     */
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

    Cycle sliceLatency() const { return sliceLatency_; }

  private:
    void finishWithWalk(CoreId walk_core, CoreId requester, CoreId slice,
                        ContextId ctx, Addr vaddr, Cycle start, Cycle now,
                        bool ecc, TranslationDone &&done);

    noc::GridTopology topo_;
    std::unique_ptr<noc::Network> network_;
    std::vector<std::unique_ptr<tlb::SetAssocTlb>> slices_;
    Cycle sliceLatency_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_DISTRIBUTED_ORG_HH
