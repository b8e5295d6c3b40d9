/**
 * @file
 * Workload `serve`: mosaicd as a closed loop. One client thread
 * submits the full_stack tenant mix's traces round-robin across its
 * four sessions; each submit waits for acceptance (admission, WAL
 * append and flush, ring push). Two workers and the watchdog make
 * four threads in all. An event is one accepted request.
 */

#include <memory>

#include "common.hh"
#include "core/experiments.hh"
#include "core/interference.hh"

using namespace mosaic;

namespace perfbench
{

namespace
{

/** Workload scale of each tenant's trace (bench_serving's default). */
constexpr double serveScale = 0.05;

/** Requests per tenant in one round. */
constexpr std::size_t serveRequestsPerTenant = 12000;

class ServeWorkload final : public Workload
{
  public:
    ServeWorkload(std::uint64_t seed, std::string state_dir)
        : seed_(seed), stateDir_(std::move(state_dir))
    {
        for (const InterferenceMix &mix : defaultInterferenceMixes()) {
            if (mix.name == "full_stack")
                mix_ = mix;
        }
    }

    Round
    round(Trace *trace) override
    {
        Round r;
        const auto gen_start = Clock::now();
        const std::vector<ServeRequest> requests = generate();
        const double gen = secondsSince(gen_start);

        double connect = 0.0;
        const ServePass pass = runServe(
            requests, static_cast<unsigned>(mix_.tenants.size()), seed_,
            stateDir_, &connect);
        r.setupSeconds = gen + connect;
        const double run = pass.submitSeconds + pass.drainSeconds;
        r.wallSeconds = r.setupSeconds + run;
        r.parts = {{pass.accepted, run}};
        r.attempted = requests.size();
        r.failed = pass.failed;
        r.errors = pass.errors;
        r.digest = pass.digest;
        r.latencyNs = pass.submitNs;

        if (trace != nullptr) {
            double submit = 0.0;
            for (const double ns : pass.submitNs)
                submit += ns * 1e-9;
            trace->span("workloads.gen", gen);
            trace->span("setup", connect);
            trace->span("serve.submit", submit);
            trace->span("serve.drain", pass.drainSeconds);
            trace->set("workloads.gen.s", gen);
            trace->set("core.access.s", submit);
            publishServe(*trace, pass, true);
        }
        return r;
    }

    std::vector<PageTouch>
    stream(std::size_t cap) override
    {
        std::vector<PageTouch> out;
        for (const ServeRequest &req : generate()) {
            if (out.size() == cap)
                break;
            out.push_back(PageTouch{static_cast<Asid>(req.session + 1),
                                    vpnOf(req.vaddr), req.write});
        }
        return out;
    }

    std::uint64_t
    pinnedDigest() const override
    {
        return 15823315864165664881ull;
    }

  private:
    /** Each tenant's trace as bench_serving derives it, interleaved
     *  round-robin across the sessions. */
    std::vector<ServeRequest>
    generate() const
    {
        std::vector<std::vector<MemRef>> traces;
        for (std::size_t t = 0; t < mix_.tenants.size(); ++t) {
            VectorSink sink;
            makeFig6Workload(mix_.tenants[t].kind,
                             serveScale * mix_.tenants[t].scale,
                             experimentCellSeed(seed_, t))
                ->run(sink);
            std::vector<MemRef> trace = sink.trace();
            if (trace.size() > serveRequestsPerTenant)
                trace.resize(serveRequestsPerTenant);
            traces.push_back(std::move(trace));
        }
        std::vector<ServeRequest> requests;
        for (std::size_t i = 0; i < serveRequestsPerTenant; ++i) {
            for (std::size_t t = 0; t < traces.size(); ++t) {
                if (i < traces[t].size()) {
                    requests.push_back({static_cast<unsigned>(t),
                                        traces[t][i].vaddr,
                                        traces[t][i].write});
                }
            }
        }
        return requests;
    }

    std::uint64_t seed_;
    std::string stateDir_;
    InterferenceMix mix_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(std::uint64_t seed, const std::string &state_dir)
{
    return std::make_unique<ServeWorkload>(seed, state_dir);
}

} // namespace perfbench
