/**
 * @file
 * TLB entry: one cached virtual-to-physical translation.
 *
 * Matches §III-A of the paper: each entry carries a valid bit, the
 * translation and the context ID associated with it; we additionally tag
 * the page size so one array can concurrently hold 4 KB and 2 MB entries
 * the way Haswell's L2 TLB does.
 */

#ifndef NOCSTAR_TLB_TLB_ENTRY_HH
#define NOCSTAR_TLB_TLB_ENTRY_HH

#include "sim/types.hh"

namespace nocstar::tlb
{

/**
 * One translation as handed to or rebuilt from an L1 TLB or L2 TLB
 * slice. The arrays themselves store it as a packed tag and a frame
 * word (SetAssocTlb).
 */
struct TlbEntry
{
    bool valid = false;
    /** Virtual page number, in units of the entry's own page size. */
    PageNum vpn = 0;
    /** Physical page number, same units. */
    PageNum ppn = 0;
    /** Address-space identifier of the owning process. */
    ContextId ctx = 0;
    PageSize size = PageSize::FourKB;
    /** True if brought in by the prefetcher and never yet demanded. */
    bool prefetched = false;
};

} // namespace nocstar::tlb

#endif // NOCSTAR_TLB_TLB_ENTRY_HH
