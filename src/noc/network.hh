/**
 * @file
 * Abstract one-way traversal-latency interface implemented by the
 * baseline interconnects (mesh, SMART, ideal). The NOCSTAR fabric
 * is event-driven and lives in src/core; these baselines are modelled
 * per the paper's methodology as contention-free latency functions
 * ("we place enough buffers and links in the system to prevent link
 * contention").
 */

#ifndef NOCSTAR_NOC_NETWORK_HH
#define NOCSTAR_NOC_NETWORK_HH

#include <memory>
#include <string>

#include "noc/topology.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace nocstar::noc
{

/**
 * Base interconnect latency model.
 */
class Network : public stats::StatGroup
{
  public:
    Network(const std::string &name, const GridTopology &topo,
            stats::StatGroup *parent = nullptr)
        : stats::StatGroup(name, parent),
          messages(this, "messages", "messages traversed"),
          hopCount(this, "hops", "total hops traversed"),
          latencyCycles(this, "latency_cycles",
                        "total one-way traversal cycles"),
          topo_(topo)
    {}

    /**
     * One-way latency for a message injected at @p now from tile
     * @p src to tile @p dst; implementations may track contention.
     */
    Cycle
    traverse(CoreId src, CoreId dst, Cycle now)
    {
        Cycle lat = latency(src, dst, now);
        ++messages;
        hopCount += static_cast<double>(topo_.hops(src, dst));
        latencyCycles += static_cast<double>(lat);
        return lat;
    }

    const GridTopology &topology() const { return topo_; }

    stats::Scalar messages;
    stats::Scalar hopCount;
    stats::Scalar latencyCycles;

  protected:
    virtual Cycle latency(CoreId src, CoreId dst, Cycle now) = 0;

    GridTopology topo_;
};

/**
 * Multi-hop mesh: tr = 1 cycle router + tw = 1 cycle link per hop.
 */
class MeshNetwork : public Network
{
  public:
    static constexpr Cycle routerCycles = 1;
    static constexpr Cycle wireCycles = 1;

    using Network::Network;

  protected:
    Cycle
    latency(CoreId src, CoreId dst, Cycle) override
    {
        unsigned h = topo_.hops(src, dst);
        return static_cast<Cycle>(h) * (routerCycles + wireCycles);
    }
};

/**
 * SMART mesh: packets bypass up to HPCmax routers per cycle over
 * pre-armed straight paths; one extra cycle arms the SMART-hop setup
 * request (SSR) per traversal segment.
 */
class SmartNetwork : public Network
{
  public:
    SmartNetwork(const std::string &name, const GridTopology &topo,
                 unsigned hpc_max, stats::StatGroup *parent = nullptr)
        : Network(name, topo, parent), hpcMax_(hpc_max ? hpc_max : 1)
    {}

    unsigned hpcMax() const { return hpcMax_; }

  protected:
    Cycle
    latency(CoreId src, CoreId dst, Cycle) override
    {
        unsigned h = topo_.hops(src, dst);
        if (h == 0)
            return 0;
        // XY paths bend at most once: each dimension segment needs its
        // own SSR setup + ceil(len/HPCmax) traversal cycles.
        Coord a = topo_.coordOf(src), b = topo_.coordOf(dst);
        unsigned dx = a.x > b.x ? a.x - b.x : b.x - a.x;
        unsigned dy = a.y > b.y ? a.y - b.y : b.y - a.y;
        Cycle total = 0;
        for (unsigned seg : {dx, dy}) {
            if (seg == 0)
                continue;
            total += 1 + (seg + hpcMax_ - 1) / hpcMax_;
        }
        return total;
    }

  private:
    unsigned hpcMax_;
};

/** Zero-latency ideal interconnect. */
class IdealNetwork : public Network
{
  public:
    using Network::Network;

  protected:
    Cycle latency(CoreId, CoreId, Cycle) override { return 0; }
};

} // namespace nocstar::noc

#endif // NOCSTAR_NOC_NETWORK_HH
