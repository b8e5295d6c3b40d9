/**
 * @file
 * Compressed Physical Frame Number encoding (paper §3.1).
 *
 * Paper encoding, 7 bits with the default geometry:
 *  - all ones        -> unmapped;
 *  - MSB 0           -> front yard, remaining bits = slot offset;
 *  - MSB 1           -> backyard, next bits = which of the d
 *                       candidate buckets, low bits = slot offset.
 *
 * The codec generalizes to other geometries: field widths are derived
 * from the geometry, and when the all-ones pattern would collide with
 * a legal backyard encoding the codec widens by one bit.
 */

#ifndef MOSAIC_MEM_CPFN_HH_
#define MOSAIC_MEM_CPFN_HH_

#include <cstdint>

#include "mem/geometry.hh"
#include "util/types.hh"

namespace mosaic
{

/** Encoder/decoder for CPFNs under a particular geometry. */
class CpfnCodec
{
  public:
    /** A decoded CPFN. */
    struct Decoded
    {
        /** True when the page lives in its front-yard bucket. */
        bool front = true;

        /** Backyard choice index in [0, d); unused for front. */
        unsigned choice = 0;

        /** Slot offset within the selected yard. */
        unsigned offset = 0;
    };

    explicit CpfnCodec(const MemoryGeometry &geometry);

    /** Bits per CPFN (7 with paper defaults). */
    unsigned bits() const { return bits_; }

    /** The reserved "unmapped" code (all ones). */
    Cpfn invalid() const { return invalid_; }

    /** True for any code other than the unmapped sentinel. */
    bool isValid(Cpfn cpfn) const { return cpfn != invalid_; }

    /** Encode a front-yard placement. */
    Cpfn encodeFront(unsigned offset) const;

    /** Encode a backyard placement. */
    Cpfn encodeBack(unsigned choice, unsigned offset) const;

    /** Decode a valid CPFN. Inline: it sits on every resident
     *  touch's translation (MosaicMapper::pfnOf). */
    Decoded
    decode(Cpfn cpfn) const
    {
        ensure(isValid(cpfn), "cpfn: decoding the unmapped sentinel");
        Decoded out;
        const unsigned msb = 1u << (bits_ - 1);
        if ((cpfn & msb) == 0) {
            out.front = true;
            out.offset = cpfn & (msb - 1);
            ensure(out.offset < frontSlots_, "cpfn: corrupt front encoding");
        } else {
            out.front = false;
            out.choice = (cpfn & (msb - 1)) >> backOffsetBits_;
            out.offset = cpfn & ((1u << backOffsetBits_) - 1);
            ensure(out.choice < backChoices_,
                   "cpfn: corrupt backyard choice");
            ensure(out.offset < backSlots_, "cpfn: corrupt backyard offset");
        }
        return out;
    }

  private:
    unsigned frontOffsetBits_;
    unsigned choiceBits_;
    unsigned backOffsetBits_;
    unsigned bits_;
    Cpfn invalid_;
    unsigned frontSlots_;
    unsigned backSlots_;
    unsigned backChoices_;
};

} // namespace mosaic

#endif // MOSAIC_MEM_CPFN_HH_
