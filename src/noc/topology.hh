/**
 * @file
 * 2D-mesh tile topology shared by every interconnect model: coordinate
 * math, Manhattan distances, and dimension-ordered (XY) path
 * enumeration down to individual directed links.
 *
 * Links are identified by (source tile, output direction). XY routing
 * first exhausts the X dimension, then Y -- the routing policy NOCSTAR's
 * link-arbiter fan-in analysis assumes (paper Fig 7(d)).
 */

#ifndef NOCSTAR_NOC_TOPOLOGY_HH
#define NOCSTAR_NOC_TOPOLOGY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace nocstar::noc
{

/** Output port directions of a tile. */
enum class Direction : std::uint8_t
{
    East = 0,
    West = 1,
    North = 2,
    South = 3,
};

/**
 * A directed inter-tile link: the @p dir output of tile @p node.
 *
 * Flattened ids are 32-bit throughout (link tables, path tables,
 * stats vectors). GridTopology's constructor bounds the tile count so
 * node * 4 + dir can never overflow: the link id space stays a dense
 * 32-bit range even at the 1024-tile design points and far beyond.
 */
struct LinkId
{
    CoreId node;
    Direction dir;

    std::uint32_t
    flatten() const
    {
        return node * 4 + static_cast<std::uint32_t>(dir);
    }

    bool
    operator==(const LinkId &other) const
    {
        return node == other.node && dir == other.dir;
    }
};

/** Tile coordinate. */
struct Coord
{
    unsigned x;
    unsigned y;
};

/**
 * A width x height tile grid.
 */
class GridTopology
{
  public:
    /**
     * Bounds the tile count so every flattened link id (tile * 4 + dir)
     * and dense per-link table index fits comfortably in 32 bits.
     */
    static constexpr unsigned maxTiles = 1u << 26;

    GridTopology(unsigned width, unsigned height)
        : width_(width), height_(height)
    {
        if (width == 0 || height == 0)
            fatal("degenerate grid ", width, "x", height);
        if (static_cast<std::uint64_t>(width) * height > maxTiles)
            fatal("grid ", width, "x", height, " exceeds the ",
                  maxTiles, "-tile bound of the 32-bit link id space");
    }

    /** Near-square grid for @p cores tiles (power-of-two friendly). */
    static GridTopology
    forCores(unsigned cores)
    {
        if (cores == 0)
            fatal("grid for zero cores");
        unsigned width = 1;
        while (width * width < cores)
            width *= 2;
        unsigned height = (cores + width - 1) / width;
        if (width * height < cores)
            fatal("cannot tile ", cores, " cores");
        return {width, height};
    }

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }
    unsigned numTiles() const { return width_ * height_; }

    /** Total directed links in the mesh. */
    unsigned
    numLinks() const
    {
        return 2 * ((width_ - 1) * height_ + (height_ - 1) * width_);
    }

    Coord
    coordOf(CoreId tile) const
    {
        return {static_cast<unsigned>(tile % width_),
                static_cast<unsigned>(tile / width_)};
    }

    CoreId
    tileAt(Coord c) const
    {
        return c.y * width_ + c.x;
    }

    /**
     * The tile one hop from @p tile in direction @p dir, or nothing when
     * @p tile is off the grid or the link would leave the mesh: the one
     * definition of which directed links exist.
     */
    std::optional<CoreId>
    neighbour(CoreId tile, Direction dir) const
    {
        if (tile >= numTiles())
            return std::nullopt;
        Coord c = coordOf(tile);
        switch (dir) {
          case Direction::East:
            if (c.x + 1 == width_)
                return std::nullopt;
            ++c.x;
            break;
          case Direction::West:
            if (c.x == 0)
                return std::nullopt;
            --c.x;
            break;
          case Direction::North:
            if (c.y == 0)
                return std::nullopt;
            --c.y;
            break;
          case Direction::South:
            if (c.y + 1 == height_)
                return std::nullopt;
            ++c.y;
            break;
        }
        return tileAt(c);
    }

    /** Whether flattened id @p link (tile * 4 + dir) is a mesh link. */
    bool
    hasLink(std::uint32_t link) const
    {
        return neighbour(link / 4, static_cast<Direction>(link % 4))
            .has_value();
    }

    /** Manhattan hop distance. */
    unsigned
    hops(CoreId a, CoreId b) const
    {
        Coord ca = coordOf(a), cb = coordOf(b);
        unsigned dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
        unsigned dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
        return dx + dy;
    }

    /** Mean Manhattan distance between distinct uniform-random tiles. */
    double
    averageHops() const
    {
        // E[|x1-x2|] for uniform over 0..w-1 is (w^2-1)/(3w).
        auto mean_abs = [](double n) { return (n * n - 1.0) / (3.0 * n); };
        return mean_abs(width_) + mean_abs(height_);
    }

    /** Directed links of the XY path src -> dst (empty if equal). */
    std::vector<LinkId>
    xyPath(CoreId src, CoreId dst) const
    {
        std::vector<LinkId> path;
        Coord cur = coordOf(src);
        Coord end = coordOf(dst);
        while (cur.x != end.x) {
            Direction dir =
                cur.x < end.x ? Direction::East : Direction::West;
            path.push_back({tileAt(cur), dir});
            cur.x += cur.x < end.x ? 1 : -1u;
        }
        while (cur.y != end.y) {
            Direction dir =
                cur.y < end.y ? Direction::South : Direction::North;
            path.push_back({tileAt(cur), dir});
            cur.y += cur.y < end.y ? 1 : -1u;
        }
        return path;
    }

    /**
     * Append the flattened link ids of the XY path src -> dst to
     * @p out. Identical link sequence to xyPath(), but allocation-free
     * for callers that keep a reusable buffer (path tables, on-demand
     * path generation at large tile counts).
     */
    void
    xyLinksInto(CoreId src, CoreId dst,
                std::vector<std::uint32_t> &out) const
    {
        Coord cur = coordOf(src);
        Coord end = coordOf(dst);
        while (cur.x != end.x) {
            Direction dir =
                cur.x < end.x ? Direction::East : Direction::West;
            out.push_back(LinkId{tileAt(cur), dir}.flatten());
            cur.x += cur.x < end.x ? 1 : -1u;
        }
        while (cur.y != end.y) {
            Direction dir =
                cur.y < end.y ? Direction::South : Direction::North;
            out.push_back(LinkId{tileAt(cur), dir}.flatten());
            cur.y += cur.y < end.y ? 1 : -1u;
        }
    }

    /** Dense id space for per-link state tables. */
    std::uint32_t linkIndexSpace() const { return numTiles() * 4; }

  private:
    unsigned width_;
    unsigned height_;
};

} // namespace nocstar::noc

#endif // NOCSTAR_NOC_TOPOLOGY_HH
