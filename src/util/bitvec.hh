/**
 * @file
 * A plain bit vector with windowed extraction, sized for the frame
 * occupancy and ghost maps (DESIGN.md §12).
 *
 * The placement hot path asks set-membership questions about runs of
 * consecutive PFNs (the slots of one bucket). window() returns up to
 * 64 such bits as one word, so free-slot choice becomes countr_zero
 * and fill counting becomes popcount instead of per-frame loads.
 */

#ifndef MOSAIC_UTIL_BITVEC_HH_
#define MOSAIC_UTIL_BITVEC_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mosaic
{

/** Fixed-size bit vector over [0, size). All bits start clear. */
class BitVec
{
  public:
    BitVec() = default;

    explicit BitVec(std::size_t bits) { resize(bits); }

    /** Resize to `bits` bits, clearing everything. */
    void
    resize(std::size_t bits)
    {
        bits_ = bits;
        words_.assign((bits + 63) / 64, 0);
    }

    std::size_t size() const { return bits_; }

    void set(std::size_t i) { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }

    void clear(std::size_t i)
    {
        words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
    }

    bool test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * Bits [base, base + width) as one word (bit k of the result is
     * bit base + k), for width in [1, 64]. Bits past size() read 0.
     */
    std::uint64_t
    window(std::size_t base, unsigned width) const
    {
        const std::size_t w = base >> 6;
        const unsigned shift = base & 63;
        std::uint64_t out = words_[w] >> shift;
        if (shift != 0 && w + 1 < words_.size())
            out |= words_[w + 1] << (64 - shift);
        if (width < 64)
            out &= (std::uint64_t{1} << width) - 1;
        return out;
    }

  private:
    std::vector<std::uint64_t> words_;
    std::size_t bits_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_UTIL_BITVEC_HH_
