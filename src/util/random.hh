/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * We use xoshiro256** (Blackman & Vigna) rather than std::mt19937 so
 * that random streams are fast, reproducible across standard library
 * versions, and cheap to fork into independent sub-streams.
 */

#ifndef MOSAIC_UTIL_RANDOM_HH_
#define MOSAIC_UTIL_RANDOM_HH_

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>

namespace mosaic
{

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also
 * be plugged into <random> distributions when needed. The per-draw
 * methods are inline: every workload generator calls them once or
 * more per reference.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's nearly-divisionless bounded generation. The
        // rejection loop keeps the result exactly uniform.
        std::uint64_t x = (*this)();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                x = (*this)();
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
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 random mantissa bits give a uniform double in [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Weighted choice: the index of one weight, drawn with
     * probability proportional to its value. Weights must be
     * non-negative with a positive sum. Used by the fuzzer to pick
     * operation kinds.
     */
    unsigned pickWeighted(std::initializer_list<double> weights);

    /**
     * Fork an independent generator. Equivalent to a long jump in the
     * stream: the child is seeded from the parent's output, so parent
     * and child sequences do not overlap in practice.
     */
    Rng fork();

  private:
    std::array<std::uint64_t, 4> s_;
};

/** splitmix64: the recommended seeder/mixer for xoshiro state. */
std::uint64_t splitmix64(std::uint64_t &state);

} // namespace mosaic

#endif // MOSAIC_UTIL_RANDOM_HH_
