/**
 * @file
 * Deterministic pseudo-random sources used throughout the simulator.
 *
 * All randomness must flow through Random so that runs are reproducible
 * given a seed; std::rand and std::random_device are banned.
 */

#ifndef NOCSTAR_SIM_RANDOM_HH
#define NOCSTAR_SIM_RANDOM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/logging.hh"

namespace nocstar
{

/**
 * A small, fast, seedable generator (xoshiro256**).
 */
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        reseed(seed);
    }

    /** Re-initialise state from a 64-bit seed via splitmix64. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        auto rotl = [](std::uint64_t x, int k) {
            return (x << k) | (x >> (64 - k));
        };
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0)
            panic("Random::below(0)");
        // Lemire's nearly-divisionless bounded sampling.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        if (hi < lo)
            panic("Random::between: hi < lo");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p of true. */
    bool chance(double p) { return uniform() < p; }

    /** Snapshot the raw generator state (checkpointing). */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {state_[0], state_[1], state_[2], state_[3]};
    }

    /** Restore a state captured by state(). */
    void
    setState(const std::array<std::uint64_t, 4> &s)
    {
        for (std::size_t i = 0; i < 4; ++i)
            state_[i] = s[i];
    }

  private:
    std::uint64_t state_[4];
};

/**
 * Zipf-distributed sampler over [0, n) with skew @p alpha, using the
 * rejection-inversion method of Hormann and Derflinger, which needs no
 * O(n) table and is fast for the large ranges page streams use.
 *
 * Copies are cheap and draw exactly what the original draws: they share
 * its read-only rejection table, so one sampler built per application
 * serves all of that application's threads.
 */
class ZipfSampler
{
  public:
    /**
     * @param n number of distinct items (>= 1).
     * @param alpha skew; 0 degenerates to uniform, typical 0.6 - 1.2.
     */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw one sample; item 0 is the most popular. */
    std::uint64_t sample(Random &rng) const;

    std::uint64_t numItems() const { return n_; }
    double alpha() const { return alpha_; }

  private:
    double h(double x) const;
    double hInverse(double x) const;

    std::uint64_t n_;
    double alpha_;
    double hx0_;
    double hn_;
    double s_;
    /**
     * Precomputed rejection thresholds h(k + 0.5) - k^-alpha for the
     * min(n, 4096) most popular items (null when alpha is 0). The skew
     * concentrates nearly all draws on small k, so this removes the two
     * pow() calls from the common rejection test; values are computed
     * with the identical expressions, so sampling is bit-for-bit
     * unchanged. Built once by the constructor and never written
     * afterwards, so copies share it and it lives as long as any copy.
     */
    std::shared_ptr<const std::vector<double>> rejectBound_;
};

} // namespace nocstar

#endif // NOCSTAR_SIM_RANDOM_HH
