/**
 * @file
 * Contention-tracking mesh for the synthetic-traffic study (paper
 * Fig 11(c)): each directed link carries one packet per cycle; a packet
 * advances hop by hop paying a router and a wire cycle and waits whenever the
 * next link is occupied. This captures the queueing growth a buffered
 * multi-hop mesh exhibits as injection rate rises.
 */

#ifndef NOCSTAR_NOC_QUEUED_MESH_HH
#define NOCSTAR_NOC_QUEUED_MESH_HH

#include <vector>

#include "noc/network.hh"

namespace nocstar::noc
{

/**
 * Send one packet from @p src to @p dst at cycle @p now over a mesh
 * whose directed links carry one packet per cycle, and return its
 * arrival cycle. @p link_free holds, per LinkId::flatten(), the cycle
 * each link is next free; the packet occupies every link it crosses.
 * Per XY hop: one router cycle for route compute and switch
 * allocation, a wait for the link, then one wire cycle holding it.
 */
inline Cycle
queuedMeshArrival(const GridTopology &topo, std::vector<Cycle> &link_free,
                  CoreId src, CoreId dst, Cycle now)
{
    Cycle t = now;
    for (const LinkId &link : topo.xyPath(src, dst)) {
        t += 1;
        Cycle &free_at = link_free[link.flatten()];
        if (free_at > t)
            t = free_at;
        t += 1;
        free_at = t;
    }
    return t;
}

/**
 * Mesh with per-link serialization.
 */
class QueuedMeshNetwork : public Network
{
  public:
    QueuedMeshNetwork(const std::string &name, const GridTopology &topo,
                      stats::StatGroup *parent = nullptr)
        : Network(name, topo, parent), linkFree_(topo.linkIndexSpace(), 0)
    {}

  protected:
    Cycle
    latency(CoreId src, CoreId dst, Cycle now) override
    {
        return queuedMeshArrival(topo_, linkFree_, src, dst, now) - now;
    }

  private:
    std::vector<Cycle> linkFree_;
};

} // namespace nocstar::noc

#endif // NOCSTAR_NOC_QUEUED_MESH_HH
