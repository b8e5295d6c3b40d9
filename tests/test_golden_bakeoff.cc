/**
 * @file
 * Golden-result regression for the design bake-off: a tiny run of
 * every registered design kind over two workloads and two arities
 * must reproduce this checked-in counter table exactly, on one
 * worker or four. Locks down how a bake-off cell is built (its
 * designs, their walker, their order) and every counter it exports.
 * If a deliberate change moves these numbers, regenerate the table
 * and explain why in the commit.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/bakeoff.hh"
#include "util/thread_pool.hh"

namespace mosaic
{
namespace
{

struct GoldenCell
{
    WorkloadKind kind;
    unsigned arity;
    std::uint64_t footprintBytes;
    std::uint64_t accesses;
};

const std::vector<GoldenCell> goldenCells = {
    {WorkloadKind::Gups, 4, 2684352, 160000},
    {WorkloadKind::Gups, 64, 2684352, 160000},
    {WorkloadKind::WarpGpu, 4, 1342177, 128000},
    {WorkloadKind::WarpGpu, 64, 1342177, 128000},
};

/** The pinned counts of a design, in export order; missRate, a
 *  ratio of two of them, is checked against that ratio. */
const std::vector<std::string> goldenMetricNames = {
    "accesses", "hits", "misses", "subEntryFills", "evictions",
    "invalidations", "walkRefs", "pwcLookups", "pwcHits",
    "prefetchesIssued", "prefetchFills", "regionFills", "reachPages",
    "validEntries"};

// Generated with goldenOptions() below: per cell, one row per design
// in bakeoffSpecs order.
const std::vector<std::array<std::uint64_t, 14>> goldenDesigns = {
    // gups, arity 4
    {160000, 111432, 48568, 0, 48312, 0, 194272, 0, 0, 0, 0, 0, 256, 256},
    {160000, 159344, 656, 492, 0, 0, 2624, 0, 0, 0, 0, 0, 656, 164},
    {160000, 111530, 48470, 0, 48214, 0, 531700, 0, 0, 0, 0, 27, 257, 256},
    {160000, 111396, 48604, 0, 48348, 0, 195438, 0, 0, 0, 0, 2, 256, 256},
    {160000, 159344, 656, 492, 0, 0, 2624, 0, 0, 0, 0, 0, 656, 164},
    {160000, 159344, 656, 492, 0, 0, 660, 656, 655, 0, 0, 0, 656, 164},
    {160000, 83855, 76145, 0, 76113, 0, 456772, 0, 0, 0, 0, 0, 32, 32},
    // gups, arity 64
    {160000, 111432, 48568, 0, 48312, 0, 194272, 0, 0, 0, 0, 0, 256, 256},
    {160000, 159344, 656, 645, 0, 0, 2624, 0, 0, 0, 0, 0, 656, 11},
    {160000, 111530, 48470, 0, 48214, 0, 531700, 0, 0, 0, 0, 27, 257, 256},
    {160000, 111396, 48604, 0, 48348, 0, 195438, 0, 0, 0, 0, 2, 256, 256},
    {160000, 159344, 656, 645, 0, 0, 2624, 0, 0, 0, 0, 0, 656, 11},
    {160000, 159344, 656, 645, 0, 0, 660, 656, 655, 0, 0, 0, 656, 11},
    {160000, 83855, 76145, 0, 76113, 0, 456772, 0, 0, 0, 0, 0, 32, 32},
    // warp_gpu, arity 4
    {128000, 120397, 7603, 0, 7347, 0, 30412, 0, 0, 0, 0, 0, 256, 256},
    {128000, 127672, 328, 246, 0, 0, 1312, 0, 0, 0, 0, 0, 328, 82},
    {128000, 120392, 7608, 0, 7352, 0, 82953, 0, 0, 0, 0, 12, 257, 256},
    {128000, 120369, 7631, 0, 7375, 0, 31035, 0, 0, 0, 0, 1, 256, 256},
    {128000, 127672, 328, 549, 0, 0, 3032, 0, 0, 506, 303, 0, 328, 82},
    {128000, 127672, 328, 246, 0, 0, 331, 328, 327, 0, 0, 0, 328, 82},
    {128000, 72817, 55183, 0, 55151, 0, 330935, 0, 0, 0, 0, 0, 32, 32},
    // warp_gpu, arity 64
    {128000, 120397, 7603, 0, 7347, 0, 30412, 0, 0, 0, 0, 0, 256, 256},
    {128000, 127672, 328, 322, 0, 0, 1312, 0, 0, 0, 0, 0, 328, 6},
    {128000, 120392, 7608, 0, 7352, 0, 82953, 0, 0, 0, 0, 12, 257, 256},
    {128000, 120369, 7631, 0, 7375, 0, 31035, 0, 0, 0, 0, 1, 256, 256},
    {128000, 127672, 328, 749, 0, 0, 3032, 0, 0, 506, 427, 0, 328, 6},
    {128000, 127672, 328, 322, 0, 0, 331, 328, 327, 0, 0, 0, 328, 6},
    {128000, 72817, 55183, 0, 55151, 0, 330935, 0, 0, 0, 0, 0, 32, 32},
};

BakeoffOptions
goldenOptions()
{
    BakeoffOptions o;
    o.scale = 0.02;
    o.tlbEntries = 256; // capacity pressure on the 4 KiB designs
    o.kinds = {WorkloadKind::Gups, WorkloadKind::WarpGpu};
    o.arities = {4, 64};
    o.seed = 1;
    return o;
}

void
expectGolden(const std::vector<BakeoffCell> &cells)
{
    ASSERT_EQ(cells.size(), goldenCells.size());
    std::size_t row = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const BakeoffCell &cell = cells[c];
        EXPECT_EQ(cell.kind, goldenCells[c].kind) << "cell " << c;
        EXPECT_EQ(cell.arity, goldenCells[c].arity) << "cell " << c;
        EXPECT_EQ(cell.footprintBytes, goldenCells[c].footprintBytes)
            << "cell " << c;
        EXPECT_EQ(cell.accesses, goldenCells[c].accesses) << "cell " << c;
        ASSERT_EQ(cell.designs.size(), 7u) << "cell " << c;
        for (const BakeoffDesignResult &design : cell.designs) {
            const auto &golden = goldenDesigns.at(row++);
            std::size_t m = 0;
            std::size_t rates = 0;
            for (const auto &[name, value] : design.metrics) {
                if (name == "missRate") {
                    // misses / accesses of the pinned counts, exactly.
                    EXPECT_EQ(std::get<double>(value),
                              static_cast<double>(golden[2]) /
                                  static_cast<double>(golden[0]))
                        << "cell " << c << " " << design.name;
                    ++rates;
                    continue;
                }
                ASSERT_LT(m, golden.size()) << design.name;
                EXPECT_EQ(name, goldenMetricNames[m]);
                EXPECT_EQ(std::get<std::uint64_t>(value), golden[m])
                    << "cell " << c << " " << design.name << " " << name;
                ++m;
            }
            EXPECT_EQ(rates, 1u) << design.name;
            EXPECT_EQ(m, golden.size()) << design.name;
        }
    }
}

TEST(GoldenBakeoff, SerialRunMatchesCheckedInTable)
{
    ThreadPool one(1);
    expectGolden(runBakeoff(goldenOptions(), one));
}

TEST(GoldenBakeoff, FourWorkerRunMatchesCheckedInTable)
{
    ThreadPool four(4);
    expectGolden(runBakeoff(goldenOptions(), four));
}

} // namespace
} // namespace mosaic
