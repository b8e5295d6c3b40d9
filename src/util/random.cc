#include "util/random.hh"

namespace mosaic
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

unsigned
Rng::pickWeighted(std::initializer_list<double> weights)
{
    double total = 0.0;
    for (const double w : weights)
        total += w;
    double point = uniform() * total;
    unsigned index = 0;
    for (const double w : weights) {
        point -= w;
        if (point < 0.0)
            return index;
        ++index;
    }
    // Rounding pushed the point past the last weight: return the
    // final index with a nonzero weight.
    index = 0;
    unsigned last = 0;
    for (const double w : weights) {
        if (w > 0.0)
            last = index;
        ++index;
    }
    return last;
}

Rng
Rng::fork()
{
    return Rng((*this)());
}

} // namespace mosaic
