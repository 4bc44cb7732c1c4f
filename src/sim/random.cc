/**
 * @file
 * Zipf sampler implementation (rejection inversion).
 */

#include "sim/random.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace nocstar
{

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha)
{
    if (n == 0)
        panic("ZipfSampler over empty range");
    if (alpha < 0)
        panic("ZipfSampler with negative alpha");
    hx0_ = h(0.5) - 1.0;
    hn_ = h(static_cast<double>(n_) + 0.5);
    s_ = 1.0 - hInverse(h(1.5) - std::pow(2.0, -alpha_));

    if (alpha_ != 0.0) {
        std::uint64_t cached = std::min<std::uint64_t>(n_, 4096);
        auto bounds = std::make_shared<std::vector<double>>();
        bounds->reserve(cached);
        for (std::uint64_t k = 1; k <= cached; ++k) {
            double kd = static_cast<double>(k);
            bounds->push_back(h(kd + 0.5) - std::pow(kd, -alpha_));
        }
        rejectBound_ = std::move(bounds);
    }
}

double
ZipfSampler::h(double x) const
{
    // Integral of 1/x^alpha.
    if (alpha_ == 1.0)
        return std::log(x);
    return std::pow(x, 1.0 - alpha_) / (1.0 - alpha_);
}

double
ZipfSampler::hInverse(double x) const
{
    if (alpha_ == 1.0)
        return std::exp(x);
    return std::pow(x * (1.0 - alpha_), 1.0 / (1.0 - alpha_));
}

std::uint64_t
ZipfSampler::sample(Random &rng) const
{
    if (alpha_ == 0.0)
        return rng.below(n_); // uniform special case

    while (true) {
        double u = hn_ + rng.uniform() * (hx0_ - hn_);
        double x = hInverse(u);
        auto k = static_cast<std::uint64_t>(x + 0.5);
        if (k < 1)
            k = 1;
        else if (k > n_)
            k = n_;
        double kd = static_cast<double>(k);
        if (kd - x <= s_)
            return k - 1;
        const std::vector<double> &cached = *rejectBound_;
        double bound = k <= cached.size()
            ? cached[k - 1]
            : h(kd + 0.5) - std::pow(kd, -alpha_);
        if (u >= bound)
            return k - 1;
    }
}

} // namespace nocstar
