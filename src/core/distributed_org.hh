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

#include "core/organization.hh"
#include "noc/network.hh"

namespace nocstar::core
{

/**
 * Per-core shared slices over a baseline network. Slice i sits on
 * tile i, so a home index is also the slice's core.
 */
class DistributedOrg final : public TlbOrganization
{
  public:
    DistributedOrg(const OrgConfig &config, OrgContext context,
                   stats::StatGroup *parent = nullptr);

    void translate(CoreId core, ContextId ctx, Addr vaddr, Cycle now,
                   TranslationDone done) override;

    void shootdown(CoreId initiator, ContextId ctx, Addr vaddr,
                   const std::vector<CoreId> &sharers, Cycle now,
                   ShootdownDone on_complete) override;

    Cycle sliceLatency() const { return sliceLatency_; }

  private:
    void finishWithWalk(CoreId walk_core, CoreId requester, CoreId slice,
                        ContextId ctx, Addr vaddr, Cycle start, Cycle now,
                        bool ecc, TranslationDone &&done);

    noc::GridTopology topo_;
    std::unique_ptr<noc::Network> network_;
    Cycle sliceLatency_;
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_DISTRIBUTED_ORG_HH
