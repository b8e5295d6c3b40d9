/**
 * @file
 * The mapping from a virtual page's hash input to its candidate
 * physical frames, and between CPFNs and PFNs (paper §2.2–2.3).
 *
 * Hash outputs 0..d are produced by one tabulation hash with probed
 * multi-output — exactly the circuit the paper puts on the TLB
 * critical path — so the OS allocator and the simulated TLB hardware
 * always agree on candidate buckets.
 *
 * The default hash input is the packed (ASID, VPN) pair. The
 * location-ID sharing extension (paper §2.5) passes a different
 * 64-bit input through the same mapper.
 */

#ifndef MOSAIC_MEM_MOSAIC_MAPPER_HH_
#define MOSAIC_MEM_MOSAIC_MAPPER_HH_

#include <array>
#include <cstdint>

#include "hash/tabulation.hh"
#include "mem/cpfn.hh"
#include "mem/geometry.hh"
#include "util/fastmod.hh"
#include "util/types.hh"

namespace mosaic
{

/** Upper bound on d supported by the fixed-size candidate array. */
constexpr unsigned maxBackChoices = 16;

/** The candidate buckets of one virtual page. */
struct CandidateSet
{
    /** Front-yard bucket index (from hash output 0). */
    std::uint32_t frontBucket = 0;

    /** Backyard bucket indices (from hash outputs 1..d). */
    std::array<std::uint32_t, maxBackChoices> backBuckets{};

    /** Number of valid entries in backBuckets. */
    unsigned numBackChoices = 0;
};

/** Computes candidate sets and converts CPFN <-> PFN. */
class MosaicMapper
{
  public:
    explicit MosaicMapper(const MemoryGeometry &geometry);

    const MemoryGeometry &geometry() const { return geometry_; }
    const CpfnCodec &codec() const { return codec_; }

    /** Candidate buckets for an arbitrary 64-bit hash input. */
    CandidateSet candidates(std::uint64_t hash_input) const;

    /**
     * PFN denoted by a valid CPFN, computing only the one hash output
     * the CPFN names: output 0 for a front-yard slot, 1 + choice for
     * a backyard slot. This is the translation the TLB performs
     * (paper §3.1, Figure 4); the candidate set, which needs all
     * 1 + d outputs, is only required to place a page. Equals
     * toPfn(candidates(hash_input), cpfn).
     */
    Pfn
    pfnOf(std::uint64_t hash_input, Cpfn cpfn) const
    {
        const CpfnCodec::Decoded d = codec_.decode(cpfn);
        const unsigned k = d.front ? 0 : 1 + d.choice;
        const Pfn base = Pfn{bucketMod_.mod(hasher_.hash(hash_input, k))} *
                         geometry_.slotsPerBucket();
        return d.front ? base + d.offset
                       : base + geometry_.frontSlots + d.offset;
    }

    /** Candidate buckets for a page identified by (ASID, VPN). */
    CandidateSet
    candidates(PageId id) const
    {
        return candidates(packPageId(id));
    }

    /** PFN of a front-yard slot of the candidate set. */
    Pfn
    frontPfn(const CandidateSet &c, unsigned offset) const
    {
        ensure(offset < geometry_.frontSlots,
               "mapper: front offset range");
        return Pfn{c.frontBucket} * geometry_.slotsPerBucket() + offset;
    }

    /** PFN of a backyard slot of the candidate set. */
    Pfn
    backPfn(const CandidateSet &c, unsigned choice,
            unsigned offset) const
    {
        ensure(choice < c.numBackChoices, "mapper: backyard choice range");
        ensure(offset < geometry_.backSlots,
               "mapper: backyard offset range");
        return Pfn{c.backBuckets[choice]} * geometry_.slotsPerBucket() +
               geometry_.frontSlots + offset;
    }

    /** First PFN of the front-yard bucket's slot run. */
    Pfn
    frontBase(const CandidateSet &c) const
    {
        return Pfn{c.frontBucket} * geometry_.slotsPerBucket();
    }

    /** First PFN of a backyard choice's slot run. */
    Pfn
    backBase(const CandidateSet &c, unsigned choice) const
    {
        return Pfn{c.backBuckets[choice]} * geometry_.slotsPerBucket() +
               geometry_.frontSlots;
    }

    /** Decode a valid CPFN to the PFN it denotes. */
    Pfn
    toPfn(const CandidateSet &c, Cpfn cpfn) const
    {
        const CpfnCodec::Decoded d = codec_.decode(cpfn);
        if (d.front)
            return frontPfn(c, d.offset);
        return backPfn(c, d.choice, d.offset);
    }

    /**
     * Encode the CPFN denoting the given PFN, which must be one of
     * the candidate slots (panics otherwise — that would mean the OS
     * placed a page outside its allowed frames).
     */
    Cpfn toCpfn(const CandidateSet &c, Pfn pfn) const;

  private:
    MemoryGeometry geometry_;
    CpfnCodec codec_;
    TabulationHash hasher_;
    FastMod32 bucketMod_;
    FastMod32 slotMod_;
};

} // namespace mosaic

#endif // MOSAIC_MEM_MOSAIC_MAPPER_HH_
