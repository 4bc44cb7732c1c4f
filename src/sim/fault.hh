/**
 * @file
 * Seeded, deterministic fault injection for the interconnect and the
 * translation structures, plus the knobs of the resilience mechanisms
 * that respond to it.
 *
 * A FaultPlan is pure data: per-link outage windows (permanent or
 * transient), loss/corruption probabilities and a seed, plus the fixed
 * retry-budget / backoff / watchdog policy that responds to them. It
 * is carried by value inside OrgConfig;
 * an empty plan (the default) means the fault layer is never consulted
 * and the hot paths are byte-identical to a build without it.
 *
 * Plans can be written by hand in a small line-oriented text format
 * (see FaultPlan::parse) and handed to every bench via --fault-plan.
 * All randomness flows through a FaultInjector seeded from the plan,
 * so a given (plan, seed) pair reproduces the same fault sequence on
 * every run and at any sweep parallelism.
 */

#ifndef NOCSTAR_SIM_FAULT_HH
#define NOCSTAR_SIM_FAULT_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

namespace nocstar::sim
{

/** One scheduled outage of a directed mesh link. */
struct LinkFaultSpec
{
    /** Flattened link id (tile * 4 + direction, GridTopology order). */
    std::uint32_t link = 0;
    /** Cycle the outage begins. */
    Cycle start = 0;
    /** Outage length in cycles; 0 means the link never recovers. */
    Cycle duration = 0;

    bool permanent() const { return duration == 0; }

    /** First cycle the link is healthy again (exclusive end). */
    Cycle
    end() const
    {
        return permanent() ? invalidCycle : start + duration;
    }
};

/**
 * A complete fault-injection scenario plus the resilience policy that
 * responds to it. Default-constructed plans are empty: no fault is
 * ever injected and no resilience machinery is instantiated.
 */
struct FaultPlan
{
    /** Scheduled link outages. */
    std::vector<LinkFaultSpec> linkFaults;
    /** Probability a winning path-setup grant is lost in flight. */
    double grantLossProb = 0;
    /** Probability an L2/slice hit reads a corrupt (ECC) entry and the
     * translation must be re-walked. */
    double sliceEccProb = 0;
    /** Probability a completed page walk hit an ECC error on a
     * page-table read and must be redone. */
    double walkEccProb = 0;
    /** Seed for every fault-related random stream. */
    std::uint64_t seed = 1;

    // Resilience policy (consulted only while the plan is non-empty).
    /** Failed setups a message may retry before it is degraded onto
     * the fallback queued mesh. */
    static constexpr unsigned retryBudget = 64;
    /** Cap on the exponential retry backoff, in cycles. */
    static constexpr Cycle backoffCap = 64;
    /** Cycles a message may sit unserved before the livelock watchdog
     * degrades it onto the fallback mesh. */
    static constexpr Cycle watchdogCycles = 100000;

    /** True when the plan can never inject anything. */
    bool
    empty() const
    {
        return linkFaults.empty() && grantLossProb == 0 &&
               sliceEccProb == 0 && walkEccProb == 0;
    }

    /**
     * Field-level sanity errors ("probability out of range", "link not
     * on the mesh", ...). @p link_exists says whether a flattened link
     * id names a link of the mesh (noc::GridTopology::hasLink); leave
     * it empty to skip the topology-dependent checks.
     */
    std::vector<std::string>
    validate(const std::function<bool(std::uint32_t)> &link_exists = {})
        const;

    /**
     * Parse the plan text format. One directive per line; '#' starts a
     * comment. Directives:
     *
     *   seed N
     *   link TILE DIR START DURATION   (DIR: E|W|N|S; DURATION cycles
     *                                   or the word "permanent")
     *   grant-loss P
     *   slice-ecc P
     *   walk-ecc P
     *
     * Every malformed line is reported; any error is fatal().
     */
    static FaultPlan parse(std::istream &in, const std::string &origin);

    /** Load and parse @p path; fatal() if unreadable or malformed. */
    static FaultPlan parseFile(const std::string &path);
};

/**
 * The runtime half: a plan plus its seeded random stream. Each
 * consumer (fabric, organization, walker) owns its own injector with a
 * distinct stream id so their draw sequences stay independent of each
 * other and of call interleaving.
 */
class FaultInjector
{
  public:
    /** Stream ids salt the seed so consumers draw independently. */
    enum class Stream : std::uint64_t
    {
        Fabric = 0x0fab,
        SliceEcc = 0x51ce,
        WalkEcc = 0x3a1c,
    };

    FaultInjector(const FaultPlan &plan, Stream stream,
                  std::uint64_t salt = 0)
        : plan_(plan),
          rng_(plan.seed ^ (static_cast<std::uint64_t>(stream) << 32) ^
               salt)
    {}

    const FaultPlan &plan() const { return plan_; }

    /** Draw: was this winning grant lost in flight? */
    bool
    loseGrant()
    {
        return plan_.grantLossProb > 0 &&
               rng_.chance(plan_.grantLossProb);
    }

    /** Draw: did this slice hit read a corrupt entry? */
    bool
    sliceEcc()
    {
        return plan_.sliceEccProb > 0 && rng_.chance(plan_.sliceEccProb);
    }

    /** Draw: must this completed walk be redone? */
    bool
    walkEcc()
    {
        return plan_.walkEccProb > 0 && rng_.chance(plan_.walkEccProb);
    }

  private:
    FaultPlan plan_;
    Random rng_;
};

} // namespace nocstar::sim

#endif // NOCSTAR_SIM_FAULT_HH
