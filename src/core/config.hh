/**
 * @file
 * Configuration types for last-level TLB organizations (paper Table II)
 * and the policy knobs the evaluation sweeps.
 */

#ifndef NOCSTAR_CORE_CONFIG_HH
#define NOCSTAR_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace nocstar::core
{

/** The last-level TLB organizations of Fig 1 / Table II. */
enum class OrgKind
{
    Private, ///< per-core private L2 TLBs (baseline)
    MonolithicMesh, ///< banked monolithic shared L2 TLB over a mesh
    MonolithicSmart, ///< banked monolithic shared L2 TLB over SMART
    Distributed, ///< per-core slices over a multi-hop mesh
    IdealShared, ///< per-core slices with a zero-latency interconnect
    Nocstar, ///< per-core slices over the NOCSTAR fabric
    NocstarIdeal, ///< NOCSTAR with contention-free path setup
};

/** Where the page-table walk runs after a shared-slice miss (§III-F). */
enum class PtwPlacement
{
    Requester, ///< miss message returns; requesting core walks
    Remote, ///< the slice's core walks, then responds with the PTE
};

/** Link acquisition modes for the NOCSTAR fabric (§V, Fig 16 left). */
enum class PathAcquire
{
    OneWay, ///< request and response each arbitrate separately
    RoundTrip, ///< both directions held for the whole slice access
};

/** Interconnect implementation behind the core::Interconnect seam. */
enum class FabricKind
{
    Flat, ///< one chip-wide circuit-switched mesh (the paper's NOCSTAR)
    /** TeraNoC-style hybrid: single-cycle crossbar within a cluster,
     * circuit-switched mesh with rotating chip-wide priority between
     * clusters. The 256-1024-tile design point. */
    Hierarchical,
};

/** How interleave indices map to home-slice tiles. */
enum class SliceMapping
{
    RowMajor, ///< index i homes on tile i (the paper's layout)
    /** Consecutive indices fill one cluster before moving to the next
     * (hierarchical fabric only): keeps runs of hot pages behind one
     * crossbar instead of striping them across the cluster mesh. */
    ClusterLocal,
};

/** @return a short printable name for an organization. */
const char *orgKindName(OrgKind kind);

/** @return a short printable name for a fabric kind. */
const char *fabricKindName(FabricKind kind);

struct OrgConfig;

/**
 * Parse a `flat` / `hier` / `hier:CxC` fabric spec (the `--fabric`
 * bench flag) into @p config's fabricKind / cluster geometry fields.
 * @return an error message, or empty on success.
 */
std::string parseFabricSpec(const std::string &spec, OrgConfig &config);

/** @return true for the organizations with per-core shared slices. */
bool isSliced(OrgKind kind);

/** @return true for any shared (non-private) organization. */
bool isShared(OrgKind kind);

/** Full organization configuration. */
struct OrgConfig
{
    OrgKind kind = OrgKind::Private;
    unsigned numCores = 16;

    /** Private / distributed slice capacity (Table II: 1024, 8-way). */
    std::uint32_t l2Entries = 1024;
    std::uint32_t l2Assoc = 8;
    /** Area-normalized NOCSTAR slice capacity (Table II: 920). */
    std::uint32_t nocstarSliceEntries = 920;

    /** Monolithic banking (paper: 4 banks at 16/32 cores, 8 at 64). */
    unsigned banks = 4;

    /** NOCSTAR / SMART maximum hops traversed per cycle. */
    unsigned hpcMax = 16;
    /** NOCSTAR arbitration priority rotation period (§III-B2). */
    Cycle priorityEpoch = 1000;
    PathAcquire pathAcquire = PathAcquire::OneWay;

    /** Interconnect implementation for the NOCSTAR organizations. */
    FabricKind fabricKind = FabricKind::Flat;
    /**
     * Hierarchical cluster geometry in tiles (width x height). Both
     * zero (the default) picks a geometry automatically; both must be
     * set together otherwise, and each must divide the corresponding
     * mesh dimension.
     */
    unsigned clusterWidth = 0;
    unsigned clusterHeight = 0;
    /** Interleave-index -> home-tile mapping (hierarchical only). */
    SliceMapping sliceMapping = SliceMapping::RowMajor;
    /**
     * Record per-source-tile grant-wait histograms in the fabric (for
     * the scaling bench's rotation-fairness p99). Host-side only:
     * simulated timing is unaffected.
     */
    bool recordGrantWait = false;

    PtwPlacement ptwPlacement = PtwPlacement::Requester;

    /** Sequential prefetch distance after L2 misses (0 disables). */
    unsigned prefetchDistance = 0;
    /** Largest prefetchDistance validate() accepts (Table III's +-1..3). */
    static constexpr unsigned maxPrefetchDistance = 3;

    /**
     * Fig 4 mode: if nonzero, the monolithic organization's entire
     * access (network + SRAM) is modelled as this fixed latency.
     */
    Cycle monolithicAccessOverride = 0;

    /**
     * Shootdown relay policy: 0 sends invalidations directly from each
     * core to the slice; g >= 1 relays through one leader per g cores.
     */
    unsigned invalLeaderGroup = 0;

    /** New lookups a slice / bank can start per cycle (read ports). */
    unsigned readPortsPerCycle = 2;

    /** Extra cycle between L1 miss detection and L2/path initiation. */
    Cycle initiateLatency = 1;

    /**
     * Fault-injection scenario plus the resilience policy responding
     * to it. Empty (the default) means no fault machinery is ever
     * instantiated: the simulated timing, the random streams and the
     * sweep output are all byte-identical to a fault-free build.
     */
    sim::FaultPlan faults;

    /**
     * Field-level configuration errors, one message per violation
     * (empty means the configuration is usable). makeOrganization()
     * fatal()s with the full list, so a bad sweep dies with every
     * problem named instead of asserting somewhere mid-run.
     */
    std::vector<std::string> validate() const;

    /** Slice capacity actually used by this organization. */
    std::uint32_t
    sliceEntriesFor() const
    {
        switch (kind) {
          case OrgKind::Nocstar:
          case OrgKind::NocstarIdeal:
            return nocstarSliceEntries;
          default:
            return l2Entries;
        }
    }
};

} // namespace nocstar::core

#endif // NOCSTAR_CORE_CONFIG_HH
