/**
 * @file
 * Deterministic random number generation: PCG32 core, uniform helpers, and
 * the Gray et al. Zipfian generator used by YCSB-style workloads.
 */

#ifndef SMART_SIM_RANDOM_HPP
#define SMART_SIM_RANDOM_HPP

#include <cassert>
#include <cmath>
#include <cstdint>

namespace smart::sim {

/** PCG32 (O'Neill): small, fast, statistically solid, fully deterministic. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0;
        inc_ = (seq << 1u) | 1u;
        next32();
        state_ += seed;
        next32();
    }

    /** @return next 32 random bits. */
    std::uint32_t
    next32()
    {
        std::uint64_t old = state_;
        state_ = old * 6364136223846793005ULL + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** @return next 64 random bits: the high word is drawn first. */
    std::uint64_t
    next64()
    {
        // Two statements: the operands of one `|` expression are
        // unsequenced, so the draw order would be the compiler's choice.
        std::uint64_t hi = next32();
        std::uint64_t lo = next32();
        return (hi << 32) | lo;
    }

    /** @return uniform integer in [0, bound). @pre bound > 0 */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        assert(bound > 0);
        // Multiplicative range reduction; bias is negligible for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next64()) * bound) >> 64);
    }

    /** @return uniform integer in [lo, hi]. */
    std::uint64_t
    uniformRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + uniform(hi - lo + 1);
    }

    /** @return uniform double in [0, 1). */
    double
    uniformDouble()
    {
        return (next64() >> 11) * (1.0 / 9007199254740992.0);
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

/**
 * Zipfian-distributed keys over [0, n), per Gray et al. "Quickly generating
 * billion-record synthetic databases" (the YCSB generator). theta = 0.99 is
 * the paper's default skew.
 */
class ZipfianGenerator
{
  public:
    /**
     * @param precomputed_zetan zeta(n, theta) if already known — computing
     *        it is O(n), so share it across many generators.
     */
    ZipfianGenerator(std::uint64_t n, double theta, std::uint64_t seed = 1,
                     double precomputed_zetan = 0.0)
        : rng_(seed), n_(n), theta_(theta)
    {
        assert(n > 0);
        if (theta_ <= 0.0) {
            uniform_ = true;
            return;
        }
        zetan_ = precomputed_zetan > 0.0 ? precomputed_zetan
                                         : zeta(n_, theta_);
        alpha_ = 1.0 / (1.0 - theta_);
        double zeta2 = zeta(2, theta_);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
               (1.0 - zeta2 / zetan_);
    }

    /** @return next key in [0, n). Key 0 is the hottest. */
    std::uint64_t
    next()
    {
        if (uniform_)
            return rng_.uniform(n_);
        double u = rng_.uniformDouble();
        double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, theta_))
            return 1;
        return static_cast<std::uint64_t>(
            static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }

    /** @return the skew parameter. */
    double theta() const { return theta_; }

    /** zeta(n, theta) = sum_{i=1..n} i^-theta (O(n); compute once). */
    static double
    zeta(std::uint64_t n, double theta)
    {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        return sum;
    }

  private:
    Rng rng_;
    std::uint64_t n_;
    double theta_;
    bool uniform_ = false;
    double zetan_ = 0.0;
    double alpha_ = 0.0;
    double eta_ = 0.0;
};

/**
 * Fisher-Yates-based scattering: maps the rank-ordered Zipfian output onto
 * scattered key ids so that hot keys are not adjacent (as YCSB does with
 * FNV hashing).
 */
inline std::uint64_t
scatterKey(std::uint64_t key, std::uint64_t n)
{
    // FNV-1a 64-bit over the 8 key bytes, then reduce.
    std::uint64_t h = 14695981039346656037ULL;
    for (int i = 0; i < 8; ++i) {
        h ^= (key >> (i * 8)) & 0xff;
        h *= 1099511628211ULL;
    }
    return h % n;
}

} // namespace smart::sim

#endif // SMART_SIM_RANDOM_HPP
