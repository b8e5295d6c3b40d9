#include "hash/tabulation.hh"

#include <cassert>

#include "util/random.hh"

namespace mosaic
{

TabulationHash::TabulationHash(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    // The base 256 entries must be drawn in exactly this order — the
    // hash function (and every placement digest derived from it) is
    // defined by it. The mirrored tail is a copy, not fresh draws.
    for (auto &table : tables_) {
        for (unsigned e = 0; e < tableEntries; ++e)
            table[e] = static_cast<std::uint32_t>(splitmix64(sm));
        for (unsigned j = 0; j + 1 < maxProbes; ++j)
            table[tableEntries + j] = table[j];
    }
}

std::uint32_t
TabulationHash::hash(std::uint64_t key, unsigned k) const
{
    std::uint32_t h = 0;
    for (unsigned i = 0; i < numTables; ++i) {
        const auto byte = static_cast<unsigned>((key >> (8 * i)) & 0xFF);
        h ^= tables_[i][(byte + k) & 0xFF];
    }
    return h;
}

void
TabulationHash::hashMany(std::uint64_t key, std::span<std::uint32_t> out) const
{
    for (auto &h : out)
        h = 0;
    for (unsigned i = 0; i < numTables; ++i) {
        const auto byte = static_cast<unsigned>((key >> (8 * i)) & 0xFF);
        for (unsigned k = 0; k < out.size(); ++k)
            out[k] ^= tables_[i][(byte + k) & 0xFF];
    }
}

unsigned
TabulationHash::probeAll(std::uint64_t key, std::span<std::uint32_t> out) const
{
    assert(out.size() <= maxProbes &&
           "probeAll batch exceeds the mirrored window");
    if (out.empty())
        return 0; // no probes requested: no table port activity
    std::uint32_t acc[maxProbes] = {};
    for (unsigned i = 0; i < numTables; ++i) {
        const auto byte = static_cast<unsigned>((key >> (8 * i)) & 0xFF);
        // One read per table: the window [byte, byte + out.size())
        // is contiguous thanks to the mirrored tail, and equals the
        // (byte + k) mod 256 entries hash() would fetch one by one.
        const std::uint32_t *window = &tables_[i][byte];
        for (unsigned k = 0; k < out.size(); ++k)
            acc[k] ^= window[k];
    }
    for (unsigned k = 0; k < out.size(); ++k)
        out[k] = acc[k];
    return numTables;
}

namespace
{

/**
 * Sweep with the probe width fixed at compile time: per key, the full
 * 8-table accumulation runs in a register-resident accumulator (the
 * unrolled window XOR vectorizes), and the result is stored once —
 * no read-modify-write passes over the output array. Bit-identical to
 * the runtime-width loop below — only the codegen differs.
 */
template <unsigned W, typename Tables>
void
sweepFixedWidth(const Tables &tables, std::span<const std::uint64_t> keys,
                std::uint32_t *out)
{
    std::uint32_t *acc = out;
    for (const std::uint64_t key : keys) {
        std::uint32_t h[W] = {};
        for (unsigned i = 0; i < TabulationHash::numTables; ++i) {
            const auto byte =
                static_cast<unsigned>((key >> (8 * i)) & 0xFF);
            const std::uint32_t *window = &tables[i][byte];
            for (unsigned k = 0; k < W; ++k)
                h[k] ^= window[k];
        }
        for (unsigned k = 0; k < W; ++k)
            acc[k] = h[k];
        acc += W;
    }
}

} // namespace

std::uint64_t
TabulationHash::probeAllMany(std::span<const std::uint64_t> keys,
                             unsigned width, std::uint32_t *out) const
{
    assert(width <= maxProbes &&
           "probeAllMany batch exceeds the mirrored window");
    if (width == 0 || keys.empty())
        return 0;
    // Each key consumes one window read per table, so the per-key
    // cost equals the scalar probeAll() bound. Common widths dispatch
    // to a fixed-width sweep whose window XOR unrolls; the fallback
    // is a table-major sweep that amortizes the table working set
    // across the block. Both are bit-identical to per-key probeAll().
    switch (width) {
    case 7:
        sweepFixedWidth<7>(tables_, keys, out);
        break;
    case 8:
        sweepFixedWidth<8>(tables_, keys, out);
        break;
    default:
        for (std::size_t j = 0; j < keys.size() * width; ++j)
            out[j] = 0;
        for (unsigned i = 0; i < numTables; ++i) {
            const auto &table = tables_[i];
            std::uint32_t *acc = out;
            for (const std::uint64_t key : keys) {
                const auto byte =
                    static_cast<unsigned>((key >> (8 * i)) & 0xFF);
                const std::uint32_t *window = &table[byte];
                for (unsigned k = 0; k < width; ++k)
                    acc[k] ^= window[k];
                acc += width;
            }
        }
        break;
    }
    return std::uint64_t{numTables} * keys.size();
}

void
TabulationHash::hashKeys(std::span<const std::uint64_t> keys, unsigned k,
                         std::uint32_t *out) const
{
    for (std::size_t j = 0; j < keys.size(); ++j)
        out[j] = 0;
    for (unsigned i = 0; i < numTables; ++i) {
        const auto &table = tables_[i];
        for (std::size_t j = 0; j < keys.size(); ++j) {
            const auto byte =
                static_cast<unsigned>((keys[j] >> (8 * i)) & 0xFF);
            out[j] ^= table[(byte + k) & 0xFF];
        }
    }
}

std::uint32_t
TabulationHash::tableEntry(unsigned table, unsigned index) const
{
    return tables_.at(table).at(index & 0xFF);
}

} // namespace mosaic
