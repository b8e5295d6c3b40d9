#include "common.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "core/experiments.hh"
#include "serve/admission.hh"
#include "serve/daemon.hh"
#include "util/random.hh"

namespace fs = std::filesystem;

using namespace mosaic;

namespace perfbench
{

double
clockCostNs()
{
    static const double cost = [] {
        std::vector<double> samples(4001);
        for (double &s : samples) {
            const auto a = Clock::now();
            const auto b = Clock::now();
            s = nsBetween(a, b);
        }
        return median(samples);
    }();
    return cost;
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    // Nearest rank: the smallest sample with at least q of the
    // samples at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

void
LatencySamples::add(double ns)
{
    const auto whole = static_cast<std::size_t>(std::max(0.0, ns));
    if (whole < exactBelowNs) {
        if (counts_.empty())
            counts_.resize(exactBelowNs);
        ++counts_[whole];
    } else {
        above_.push_back(ns);
    }
    ++count_;
}

double
LatencySamples::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(count_))),
        1, count_);
    std::uint64_t seen = 0;
    for (std::size_t ns = 0; ns < counts_.size(); ++ns) {
        seen += counts_[ns];
        if (seen >= rank)
            return static_cast<double>(ns);
    }
    std::vector<double> above = above_;
    std::sort(above.begin(), above.end());
    return above[rank - seen - 1];
}

void
Trace::span(const std::string &name, double seconds)
{
    spans_[name] += std::max(0.0, seconds);
}

double
Trace::spanSeconds() const
{
    double total = 0.0;
    for (const auto &[name, seconds] : spans_)
        total += seconds;
    return total;
}

void
Trace::set(const std::string &name, double value)
{
    values_[name] = value;
}

void
Trace::setIfAbsent(const std::string &name, double value)
{
    values_.emplace(name, value);
}

bool
Trace::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

void
TimedVmSink::touch(Asid asid, Vpn vpn, bool write)
{
    if (++calls_ % stride_ != 0) {
        vm_.touch(asid, vpn, write);
        return;
    }
    const VmStats &before = vm_.stats();
    const std::uint64_t faults = before.minorFaults + before.majorFaults;
    const std::uint64_t evicts = before.swapOuts + before.ghostEvictions;
    const auto a = Clock::now();
    vm_.touch(asid, vpn, write);
    const double ns = spanNs(a, Clock::now());
    const VmStats &after = vm_.stats();
    if (after.swapOuts + after.ghostEvictions != evicts)
        buckets.evict.add(ns);
    else if (after.minorFaults + after.majorFaults != faults)
        buckets.fault.add(ns);
    else
        buckets.hit.add(ns);
}

double
TimedVmSink::insideSeconds() const
{
    const std::uint64_t sampled =
        buckets.hit.ops + buckets.fault.ops + buckets.evict.ops;
    if (sampled == 0)
        return 0.0;
    const double ns = buckets.hit.ns + buckets.fault.ns + buckets.evict.ns;
    return ns / static_cast<double>(sampled) *
           static_cast<double>(calls_) * 1e-9;
}

void
publishVm(Trace &trace, const std::string &side,
          const TouchBuckets &buckets, const VmStats &stats,
          bool own_path)
{
    const auto put = [&](const std::string &name, double value) {
        if (own_path)
            trace.set(name, value);
        else
            trace.setIfAbsent(name, value);
    };
    const std::string p = "os." + side + ".";
    put(p + "touch_hit.ns", buckets.hit.perOp());
    put(p + "touch_fault.ns", buckets.fault.perOp());
    put(p + "touch_evict.ns", buckets.evict.perOp());
    put(p + "major_faults", static_cast<double>(stats.majorFaults));
    put(p + "swap_outs", static_cast<double>(stats.swapOuts));
    if (side == "mosaic") {
        put("os.mosaic.ghost_rescues",
            static_cast<double>(stats.ghostRescues));
        put("mem.conflicts", static_cast<double>(stats.conflicts));
    }
}

ShardPass
touchBlocks(ShardedMosaicVm &vm, const std::vector<PageTouch> &stream,
            Digest &digest)
{
    constexpr std::size_t block = 8192;
    ShardPass pass;
    std::vector<Pfn> out(block);
    for (std::size_t at = 0; at < stream.size(); at += block) {
        const std::size_t n = std::min(block, stream.size() - at);
        const auto a = Clock::now();
        vm.touchBatch({stream.data() + at, n}, out.data());
        const auto b = Clock::now();
        pass.blockMs.push_back(nsBetween(a, b) * 1e-6);
        pass.batchSeconds += nsBetween(a, b) * 1e-9;
        for (std::size_t i = 0; i < n; ++i)
            digest.mix(out[i]);
    }
    pass.steals = vm.counters().steals;
    pass.deferredOps = vm.counters().deferredBatchOps;
    std::uint64_t max_resident = 0, sum_resident = 0;
    for (std::size_t s = 0; s < vm.numShards(); ++s) {
        const std::uint64_t r = vm.shard(s).residentPages();
        max_resident = std::max(max_resident, r);
        sum_resident += r;
    }
    if (sum_resident > 0) {
        pass.imbalancePermille =
            max_resident * 1000 * vm.numShards() / sum_resident;
    }
    return pass;
}

void
publishShard(Trace &trace, const ShardPass &pass, bool own_path)
{
    const auto put = [&](const std::string &name, double value) {
        if (own_path)
            trace.set(name, value);
        else
            trace.setIfAbsent(name, value);
    };
    put("os.shard.block_ms.p50", quantile(pass.blockMs, 0.50));
    put("os.shard.block_ms.p99", quantile(pass.blockMs, 0.99));
    put("os.shard.steals", static_cast<double>(pass.steals));
    put("os.shard.deferred_ops", static_cast<double>(pass.deferredOps));
    put("os.shard.imbalance_permille",
        static_cast<double>(pass.imbalancePermille));
}

ServePass
runServe(const std::vector<ServeRequest> &requests, unsigned sessions,
         std::uint64_t seed, const std::string &state_dir,
         double *setup_seconds)
{
    using namespace mosaic::serve;
    ServePass pass;
    fs::remove_all(state_dir);
    fs::create_directories(state_dir);

    const auto setup_start = Clock::now();
    ServeConfig config;
    config.stateDir = state_dir;
    config.workers = 2;
    config.seed = seed;
    config.epochEvery = 1024;
    Mosaicd daemon(config);
    if (Status st = daemon.start(); !st.ok()) {
        pass.errors.push_back("serve: start: " + st.toString());
        return pass;
    }
    std::vector<SessionHandle> handles;
    for (unsigned s = 0; s < sessions; ++s) {
        auto handle = daemon.connect("tenant-" + std::to_string(s));
        if (!handle.ok()) {
            pass.errors.push_back("serve: connect: " +
                                  handle.status().toString());
            daemon.stop();
            fs::remove_all(state_dir);
            return pass;
        }
        handles.push_back(handle.value());
    }
    *setup_seconds = secondsSince(setup_start);

    // Closed loop: the next submit is sent only once the previous one
    // was accepted (durable in the WAL and pushed on the ring) or
    // shed for good after its retries. The retry budget is the
    // library default (16 attempts, 50 us doubling backoff), enough to
    // ride out a worker descheduled for a few hundred milliseconds.
    Rng rng(experimentCellSeed(seed ^ 0xBE4C, sessions));
    pass.submitNs.reserve(requests.size());
    const auto submit_start = Clock::now();
    for (const ServeRequest &req : requests) {
        SessionHandle &session = handles[req.session];
        unsigned attempts = 0;
        const auto a = Clock::now();
        const Status st = retryWithBackoff(
            [&] {
                ++attempts;
                return session.submit(req.vaddr, req.write);
            },
            rng);
        const auto b = Clock::now();
        pass.submitNs.push_back(nsBetween(a, b));
        pass.retries += attempts - 1;
        if (!st.ok())
            ++pass.failed;
    }
    pass.submitSeconds = secondsSince(submit_start);

    const auto drain_start = Clock::now();
    if (Status st = daemon.drain(60.0); !st.ok())
        pass.errors.push_back("serve: drain: " + st.toString());
    pass.drainSeconds = secondsSince(drain_start);

    const ServeTotals totals = daemon.totals();
    pass.accepted = totals.accepted;
    if (totals.submitted != totals.accepted + totals.shedTotal) {
        pass.errors.push_back("serve: submitted != accepted + shed");
    }
    if (totals.accepted != totals.completed)
        pass.errors.push_back("serve: accepted != completed");

    Digest digest;
    for (const SessionHandle &h : handles) {
        digest.mix(h.id());
        digest.mix(h.snapshot().accepted);
        const Result<std::uint64_t> state = daemon.stateDigest(h.id());
        if (!state.ok()) {
            pass.errors.push_back("serve: state digest: " +
                                  state.status().toString());
        } else {
            digest.mix(state.value());
        }
        std::error_code ec;
        const auto bytes = fs::file_size(
            state_dir + "/s" + std::to_string(h.id()) + ".log", ec);
        if (!ec)
            pass.walBytes += bytes;
    }
    pass.digest = digest.h;

    daemon.stop();
    fs::remove_all(state_dir);
    return pass;
}

void
publishServe(Trace &trace, const ServePass &pass, bool own_path)
{
    const auto put = [&](const std::string &name, double value) {
        if (own_path)
            trace.set(name, value);
        else
            trace.setIfAbsent(name, value);
    };
    put("serve.submit.ns.p50", quantile(pass.submitNs, 0.50));
    put("serve.submit.ns.p99", quantile(pass.submitNs, 0.99));
    put("serve.drain.s", pass.drainSeconds);
    put("serve.retries", static_cast<double>(pass.retries));
    put("serve.wal.bytes_per_req",
        pass.accepted == 0 ? 0.0
                           : static_cast<double>(pass.walBytes) /
                                 static_cast<double>(pass.accepted));
}

} // namespace perfbench
