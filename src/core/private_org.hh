/**
 * @file
 * The baseline organization: per-core private L2 TLBs (Fig 1(a)),
 * Haswell-like 1024-entry 8-way arrays with 9-cycle lookup.
 */

#ifndef NOCSTAR_CORE_PRIVATE_ORG_HH
#define NOCSTAR_CORE_PRIVATE_ORG_HH

#include <memory>
#include <vector>

#include "core/organization.hh"

namespace nocstar::core
{

/**
 * Private per-core L2 TLBs.
 */
class PrivateOrg : public TlbOrganization
{
  public:
    PrivateOrg(const OrgConfig &config, OrgContext context,
               stats::StatGroup *parent = nullptr);

    void translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                   TranslationDone done) override;

    void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                   const std::vector<CoreId> &sharers, Cycle now,
                   ShootdownDone on_complete) override;

    void flushAll() override;

    void preloadPrivate(CoreId core, ContextId ctx, Addr vaddr,
                        const mem::Translation &t) override;

    std::uint64_t totalEntries() const override;

    /** Direct array access for tests. */
    tlb::SetAssocTlb &arrayOf(CoreId core) { return *arrays_.at(core); }

    // One home array per core, the requester's own.
    unsigned numHomeArrays() const override { return config_.numCores; }

    unsigned
    homeArrayOf(CoreId core, Addr vaddr) const override
    {
        (void)vaddr;
        return static_cast<unsigned>(core);
    }

    tlb::SetAssocTlb &array(unsigned index) override
    {
        return *arrays_.at(index);
    }

    /** Fixed cost of a private-TLB shootdown (IPI + local inval). */
    static constexpr Cycle shootdownLatency = 50;

  private:
    Cycle lookupLatency_;
    std::vector<std::unique_ptr<tlb::SetAssocTlb>> arrays_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_PRIVATE_ORG_HH
