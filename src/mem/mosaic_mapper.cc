#include "mem/mosaic_mapper.hh"

#include <span>

namespace mosaic
{

MosaicMapper::MosaicMapper(const MemoryGeometry &geometry)
    : geometry_(geometry), codec_(geometry), hasher_(geometry.hashSeed)
{
    geometry_.check();
    ensure(geometry_.backChoices <= maxBackChoices,
           "mapper: d exceeds maxBackChoices");
    ensure(geometry_.numFrames <= UINT32_MAX,
           "mapper: PFNs must fit 32 bits");
    bucketMod_ = FastMod32(
        static_cast<std::uint32_t>(geometry_.numBuckets()));
    slotMod_ = FastMod32(geometry_.slotsPerBucket());
}

CandidateSet
MosaicMapper::candidates(std::uint64_t hash_input) const
{
    CandidateSet out;
    std::array<std::uint32_t, maxBackChoices + 1> hashes;
    const unsigned n = geometry_.backChoices + 1;
    // The paper default (d = 6, so 7 outputs) fits one batched pass:
    // 8 table reads total instead of 8 per output. Wider d falls back
    // to the per-output path; both are bit-identical.
    if (n <= TabulationHash::maxProbes)
        hasher_.probeAll(hash_input, std::span(hashes.data(), n));
    else
        hasher_.hashMany(hash_input, std::span(hashes.data(), n));

    out.frontBucket = bucketMod_.mod(hashes[0]);
    out.numBackChoices = geometry_.backChoices;
    for (unsigned k = 0; k < geometry_.backChoices; ++k)
        out.backBuckets[k] = bucketMod_.mod(hashes[k + 1]);
    return out;
}

Cpfn
MosaicMapper::toCpfn(const CandidateSet &c, Pfn pfn) const
{
    // PFNs fit 32 bits (the ctor checks), so Lemire division is
    // exact and the hot path avoids two div instructions.
    const auto n = static_cast<std::uint32_t>(pfn);
    const std::uint32_t bucket = slotMod_.div(n);
    const unsigned slot = slotMod_.mod(n);

    if (slot < geometry_.frontSlots) {
        if (bucket == c.frontBucket)
            return codec_.encodeFront(slot);
    } else {
        const unsigned offset = slot - geometry_.frontSlots;
        for (unsigned k = 0; k < c.numBackChoices; ++k) {
            if (c.backBuckets[k] == bucket)
                return codec_.encodeBack(k, offset);
        }
    }
    panic("mapper: PFN is not a candidate slot of this page");
}

} // namespace mosaic
