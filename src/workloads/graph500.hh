/**
 * @file
 * A Graph500-style workload: Kronecker (R-MAT) graph generation, CSR
 * construction, and breadth-first search (the benchmark's kernel 2),
 * emitting the BFS's data references. BFS over an R-MAT graph is the
 * canonical TLB-hostile workload the paper leads with: large
 * footprint, pointer-chasing, poor locality.
 */

#ifndef MOSAIC_WORKLOADS_GRAPH500_HH_
#define MOSAIC_WORKLOADS_GRAPH500_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hh"
#include "workloads/virtual_arena.hh"
#include "workloads/workload.hh"

namespace mosaic
{

/** Parameters of the Graph500 workload. */
struct Graph500Config
{
    /** Vertices; need not be a power of two. */
    std::uint64_t numVertices = std::uint64_t{1} << 20;

    /** Directed edges generated = numVertices * edgeFactor. */
    unsigned edgeFactor = 8;

    /** BFS traversals from distinct random roots. */
    unsigned numBfsRoots = 1;

    /** Also emit kernel 1 (CSR construction: degree count, prefix
     *  sum, adjacency scatter) at the start of run(). */
    bool traceConstruction = false;

    std::uint64_t seed = 1;
};

/** R-MAT generation + CSR + BFS. */
class Graph500 : public Workload
{
  public:
    explicit Graph500(const Graph500Config &config);

    const WorkloadInfo &info() const override { return info_; }

    void run(AccessSink &sink) override;

    /** Undirected edge endpoints stored in the CSR (2x generated). */
    std::uint64_t numAdjEntries() const { return adj_.size(); }

    /** The CSR row offsets (numVertices + 1 entries; for tests). */
    std::span<const std::uint64_t> csrOffsets() const { return xadj_; }

    /** The CSR adjacency array (for tests). */
    std::span<const std::uint32_t> csrAdjacency() const { return adj_; }

    /** Vertices reached by the most recent BFS (for tests). */
    std::uint64_t lastBfsReached() const { return lastReached_; }

  private:
    void generateAndBuild();
    void bfs(std::uint64_t root, AccessSink &sink);
    void traceConstruction(AccessSink &sink);

    Graph500Config config_;
    WorkloadInfo info_;
    VirtualArena arena_;

    /** CSR row offsets (numVertices + 1). */
    std::vector<std::uint64_t> xadj_;

    /** CSR adjacency entries. */
    std::vector<std::uint32_t> adj_;

    /** BFS state, reused across roots. */
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint32_t> queue_;

    ArenaRegion xadjRegion_;
    ArenaRegion adjRegion_;
    ArenaRegion parentRegion_;
    ArenaRegion queueRegion_;

    /** Endpoint pairs as generated (kernel 1 input), kept only to
     *  replay construction accesses faithfully. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
    ArenaRegion edgeRegion_;

    std::uint64_t lastReached_ = 0;
};

} // namespace mosaic

#endif // MOSAIC_WORKLOADS_GRAPH500_HH_
