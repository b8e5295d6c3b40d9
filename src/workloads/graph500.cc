#include "workloads/graph500.hh"

#include <algorithm>
#include <numeric>

#include "mem/geometry.hh"

namespace mosaic
{

namespace
{

/** Emit one read per 64-byte line over a sequential element range. */
void
scanLines(AccessSink &sink, const ArenaRegion &region,
          std::uint64_t first_elem, std::uint64_t last_elem,
          unsigned elem_size, bool write)
{
    const Addr first = region.element(first_elem, elem_size);
    const Addr last = region.element(last_elem, elem_size);
    for (Addr line = first & ~Addr{63}; line <= last; line += 64)
        sink.access(std::max(line, first), write);
}

} // namespace

Graph500::Graph500(const Graph500Config &config)
    : config_(config)
{
    ensure(config.numVertices >= 2, "graph500: need >= 2 vertices");
    generateAndBuild();

    xadjRegion_ = arena_.allocate("xadj", xadj_.size() * 8);
    adjRegion_ = arena_.allocate("adj", adj_.size() * 4);
    parentRegion_ = arena_.allocate("parent", parent_.size() * 4);
    queueRegion_ = arena_.allocate("queue", queue_.size() * 4);
    if (config_.traceConstruction) {
        edgeRegion_ =
            arena_.allocate("edges", edges_.size() * 8);
    }

    info_.name = "graph500";
    info_.footprintBytes = arena_.footprintBytes();
}

void
Graph500::traceConstruction(AccessSink &sink)
{
    // Kernel 1, replayed access-faithfully over the already-built
    // CSR: a degree-count pass (sequential edge reads, scattered
    // counter increments), the prefix sum (sequential sweep), and
    // the adjacency scatter (sequential edge reads, two scattered
    // writes each).
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        if (e % 8 == 0)
            sink.access(edgeRegion_.element(e, 8), false);
        sink.access(xadjRegion_.element(edges_[e].first, 8), true);
        sink.access(xadjRegion_.element(edges_[e].second, 8), true);
    }
    for (std::size_t v = 0; v + 1 < xadj_.size(); v += 8)
        sink.access(xadjRegion_.element(v, 8), true);
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        if (e % 8 == 0)
            sink.access(edgeRegion_.element(e, 8), false);
        sink.access(xadjRegion_.element(edges_[e].first, 8), false);
        sink.access(adjRegion_.element(xadj_[edges_[e].first], 4),
                    true);
        sink.access(xadjRegion_.element(edges_[e].second, 8), false);
        sink.access(adjRegion_.element(xadj_[edges_[e].second], 4),
                    true);
    }
}

void
Graph500::generateAndBuild()
{
    const std::uint64_t n = config_.numVertices;
    const std::uint64_t m = n * config_.edgeFactor;
    const unsigned levels = ceilLog2(n);

    // R-MAT quadrant probabilities from the Graph500 specification.
    constexpr double a = 0.57, b = 0.19, c = 0.19;

    Rng rng(config_.seed);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint64_t src = 0, dst = 0;
        for (unsigned level = 0; level < levels; ++level) {
            // Branch-free quadrant pick: the same three comparisons an
            // if/else chain makes, summed, so no draw is mispredicted.
            const double r = rng.uniform();
            const unsigned quad = unsigned{r >= a} + unsigned{r >= a + b} +
                                  unsigned{r >= a + b + c};
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        edges.emplace_back(static_cast<std::uint32_t>(src % n),
                           static_cast<std::uint32_t>(dst % n));
    }

    // Vertex relabeling permutation, as in the reference code, so
    // that R-MAT's skew is not aligned with vertex ids.
    std::vector<std::uint32_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::uint64_t i = n; i-- > 1;)
        std::swap(perm[i], perm[rng.below(i + 1)]);

    // Build the undirected CSR (each generated edge in both
    // directions). Self-loops are kept; they are harmless to BFS.
    std::vector<std::uint64_t> degree(n + 1, 0);
    for (auto &[s, d] : edges) {
        s = perm[s];
        d = perm[d];
        ++degree[s + 1];
        ++degree[d + 1];
    }
    xadj_.assign(n + 1, 0);
    std::partial_sum(degree.begin(), degree.end(), xadj_.begin());

    adj_.assign(2 * m, 0);
    std::vector<std::uint64_t> cursor(xadj_.begin(), xadj_.end() - 1);
    for (const auto &[s, d] : edges) {
        adj_[cursor[s]++] = d;
        adj_[cursor[d]++] = s;
    }

    if (config_.traceConstruction)
        edges_ = std::move(edges);

    parent_.assign(n, 0);
    queue_.assign(n, 0);
}

void
Graph500::bfs(std::uint64_t root, AccessSink &sink)
{
    constexpr std::uint32_t unvisited = 0xFFFFFFFFu;

    // parent reset: a sequential write sweep.
    std::fill(parent_.begin(), parent_.end(), unvisited);
    scanLines(sink, parentRegion_, 0, parent_.size() - 1, 4, true);

    parent_[root] = static_cast<std::uint32_t>(root);
    sink.access(parentRegion_.element(root, 4), true);
    queue_[0] = static_cast<std::uint32_t>(root);
    sink.access(queueRegion_.element(0, 4), true);

    std::uint64_t head = 0, tail = 1;
    std::uint64_t reached = 1;
    while (head < tail) {
        const std::uint32_t u = queue_[head];
        sink.access(queueRegion_.element(head, 4), false);
        ++head;

        const std::uint64_t begin = xadj_[u];
        const std::uint64_t end = xadj_[u + 1];
        sink.access(xadjRegion_.element(u, 8), false);

        for (std::uint64_t e = begin; e < end; ++e) {
            const std::uint32_t v = adj_[e];
            // Adjacency entries are sequential: emit per line.
            if (e == begin || (adjRegion_.element(e, 4) & 63) == 0)
                sink.access(adjRegion_.element(e, 4), false);

            // The parent check is the random, TLB-hostile access.
            sink.access(parentRegion_.element(v, 4), false);
            if (parent_[v] == unvisited) {
                parent_[v] = u;
                sink.access(parentRegion_.element(v, 4), true);
                queue_[tail] = v;
                sink.access(queueRegion_.element(tail, 4), true);
                ++tail;
                ++reached;
            }
        }
    }
    lastReached_ = reached;
}

void
Graph500::run(AccessSink &sink)
{
    if (config_.traceConstruction)
        traceConstruction(sink);
    Rng rng(config_.seed ^ 0xB0F5u);
    for (unsigned i = 0; i < config_.numBfsRoots; ++i) {
        // Roots must have at least one edge, like the real benchmark.
        std::uint64_t root;
        do {
            root = rng.below(config_.numVertices);
        } while (xadj_[root + 1] == xadj_[root]);
        bfs(root, sink);
    }
}

} // namespace mosaic
