/**
 * @file
 * Shared pieces of the repository benchmark: host-time spans, the
 * digest every workload folds its simulated results into, the round
 * a workload runs, and the per-layer metric set a traced run fills.
 *
 * Times are host time (what the simulator takes to run); counts are
 * simulated (what the modelled machine did). Every metric says which.
 */

#ifndef PERFBENCH_COMMON_HH_
#define PERFBENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "os/sharded_vm.hh"
#include "os/virtual_memory.hh"
#include "workloads/access_sink.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Median cost of one empty span (two clock reads), measured once;
 *  per-operation spans subtract it so short calls are not dominated
 *  by the clock itself. */
double clockCostNs();

/** A per-operation span with the clock cost taken off, never < 0. */
inline double
spanNs(Clock::time_point a, Clock::time_point b)
{
    const double ns = nsBetween(a, b) - clockCostNs();
    return ns > 0.0 ? ns : 0.0;
}

/** FNV-1a over 64-bit words: the simulated-result digest. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }
};

/** Exact quantile of raw samples (nearest rank); 0 when empty. */
double quantile(std::vector<double> samples, double q);

inline double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

/**
 * Exact nearest-rank quantiles of many nanosecond samples in bounded
 * memory: one count per whole nanosecond below 1 ms, raw values above.
 * Clock readings are whole nanoseconds, so nothing is rounded.
 */
class LatencySamples
{
  public:
    void add(double ns);

    double quantile(double q) const;

    std::uint64_t count() const { return count_; }

  private:
    static constexpr std::size_t exactBelowNs = std::size_t{1} << 20;

    std::vector<std::uint32_t> counts_;
    std::vector<double> above_;
    std::uint64_t count_ = 0;
};

/** Running sum and count of one operation's spans. */
struct OpTimer
{
    double ns = 0.0;
    std::uint64_t ops = 0;

    void
    add(double span_ns)
    {
        ns += span_ns;
        ++ops;
    }

    double perOp() const { return ops == 0 ? 0.0 : ns / ops; }
};

/**
 * What a traced round records: the self time of each layer span (for
 * trace.coverage_pct) and the per-layer metric values it measured on
 * the workload's own path. Replays fill only what is still missing.
 */
class Trace
{
  public:
    /** Add @p seconds of self time to span @p name. */
    void span(const std::string &name, double seconds);

    double spanSeconds() const;

    /** Set a per-layer metric measured on the workload's own path. */
    void set(const std::string &name, double value);

    /** Set a per-layer metric unless the own path already did. */
    void setIfAbsent(const std::string &name, double value);

    bool has(const std::string &name) const;

    const std::map<std::string, double> &values() const
    {
        return values_;
    }

    void clearSpans() { spans_.clear(); }

  private:
    std::map<std::string, double> spans_;
    std::map<std::string, double> values_;
};

/** One set-up plus one measured phase of a workload. */
struct Round
{
    /** Host seconds to build the inputs and simulator state. */
    double setupSeconds = 0.0;

    /** Host seconds of the work a traced round repeats with its
     *  spans on; trace.overhead_pct compares the two. */
    double wallSeconds = 0.0;

    /** An untraced round's measured phase split into parts of fixed
     *  input (one per panel or cell, or the whole phase): simulated
     *  events and host seconds of each. Parts are the same, in the
     *  same order, in every round of a run. */
    std::vector<std::pair<std::uint64_t, double>> parts;

    /** Cells (or requests, for serve) attempted and failed. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Digest of every simulated result of the round. */
    std::uint64_t digest = 0;

    /** Invariant violations; any entry fails the round. */
    std::vector<std::string> errors;

    /** Exact simulated headline results, printed by name. */
    std::map<std::string, double> results;

    /** Host-time samples the workload reports raw (serve latency). */
    std::vector<double> latencyNs;
};

/** A named benchmark workload, built from its seed alone. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One round. With @p trace the round records its layer spans
     *  and own-path per-layer metrics; its simulated results, and so
     *  its digest, are the same as without. */
    virtual Round round(Trace *trace) = 0;

    /** Up to @p cap page touches of the workload's reference stream,
     *  for the layer replays of a traced run. */
    virtual std::vector<mosaic::PageTouch> stream(std::size_t cap) = 0;

    /** The round digest at the default seed. */
    virtual std::uint64_t pinnedDigest() const = 0;
};

constexpr std::uint64_t defaultSeed = 1;

std::unique_ptr<Workload> makeFig6(std::uint64_t seed);
std::unique_ptr<Workload> makeSwap(std::uint64_t seed);
std::unique_ptr<Workload> makeTenants(std::uint64_t seed);
std::unique_ptr<Workload> makeServe(std::uint64_t seed,
                                    const std::string &state_dir);

/**
 * Replay @p stream through standalone instances of every layer the
 * workload's own traced round did not measure, and fill the missing
 * per-layer metrics. Replays that check a simulated result append to
 * @p errors on a mismatch.
 */
void replayLayers(const std::vector<mosaic::PageTouch> &stream,
                  std::uint64_t seed, const std::string &state_dir,
                  Trace &trace, std::vector<std::string> &errors);

// Building blocks the workloads and the replays share.

/** Touch spans bucketed by the VmStats counter the touch moved. */
struct TouchBuckets
{
    OpTimer hit, fault, evict;
};

/**
 * A page-touch sink that times every @p stride-th scalar
 * VirtualMemory::touch and files the span under evict (swapOuts or
 * ghostEvictions moved), fault (minor or major faults moved) or hit.
 */
class TimedVmSink : public mosaic::AccessSink
{
  public:
    TimedVmSink(mosaic::VirtualMemory &vm, mosaic::Asid asid,
                unsigned stride = 1)
        : vm_(vm), asid_(asid), stride_(stride)
    {
    }

    void
    access(mosaic::Addr vaddr, bool write) override
    {
        touch(asid_, mosaic::vpnOf(vaddr), write);
    }

    void touch(mosaic::Asid asid, mosaic::Vpn vpn, bool write);

    /** Seconds inside touch(), scaled up from the samples. */
    double insideSeconds() const;

    TouchBuckets buckets;

  private:
    mosaic::VirtualMemory &vm_;
    mosaic::Asid asid_;
    unsigned stride_;
    std::uint64_t calls_ = 0;
};

/**
 * Wraps the sink a workload engine feeds and times every
 * @p stride-th call into it, so the engine's own time (generation)
 * and the consumer's time split without a clock read per reference.
 */
class TimingSink : public mosaic::AccessSink
{
  public:
    TimingSink(mosaic::AccessSink &inner, unsigned stride)
        : inner_(inner), stride_(stride)
    {
    }

    void
    access(mosaic::Addr vaddr, bool write) override
    {
        if (++calls_ % stride_ != 0) {
            inner_.access(vaddr, write);
            return;
        }
        const auto a = Clock::now();
        inner_.access(vaddr, write);
        timed_.add(spanNs(a, Clock::now()));
    }

    void flush() override { inner_.flush(); }

    std::uint64_t calls() const { return calls_; }

    /** Seconds inside the wrapped sink, scaled up from the samples. */
    double
    insideSeconds() const
    {
        return timed_.perOp() * static_cast<double>(calls_) * 1e-9;
    }

  private:
    mosaic::AccessSink &inner_;
    unsigned stride_;
    std::uint64_t calls_ = 0;
    OpTimer timed_;
};

/** Publish os.<side>.* metrics from @p buckets and @p vm's stats. */
void publishVm(Trace &trace, const std::string &side,
               const TouchBuckets &buckets, const mosaic::VmStats &stats,
               bool own_path);

/** Shard-engine metrics of one touchBatch pass. */
struct ShardPass
{
    std::vector<double> blockMs;
    std::uint64_t steals = 0;
    std::uint64_t deferredOps = 0;
    std::uint64_t imbalancePermille = 0;
    double batchSeconds = 0.0;
};

/** touchBatch @p stream through @p vm in blocks, timing each block
 *  and folding every returned PFN into @p digest. */
ShardPass touchBlocks(mosaic::ShardedMosaicVm &vm,
                      const std::vector<mosaic::PageTouch> &stream,
                      Digest &digest);

/** Publish os.shard.* metrics from @p pass. */
void publishShard(Trace &trace, const ShardPass &pass, bool own_path);

/** Serve-loop metrics of one closed-loop pass. */
struct ServePass
{
    std::vector<double> submitNs;
    double submitSeconds = 0.0;
    double drainSeconds = 0.0;
    std::uint64_t accepted = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> errors;
};

/** One serve request: the session it goes to and its reference. */
struct ServeRequest
{
    unsigned session = 0;
    mosaic::Addr vaddr = 0;
    bool write = false;
};

/**
 * Run mosaicd closed-loop over @p requests: start a fresh daemon in
 * @p state_dir, connect @p sessions sessions, then one client thread
 * submits each request (with bounded retry), timing each submit, and
 * waits for its acceptance; then drain. @p setup_seconds receives the
 * start+connect time. The state directory is removed afterwards.
 */
ServePass runServe(const std::vector<ServeRequest> &requests,
                   unsigned sessions, std::uint64_t seed,
                   const std::string &state_dir, double *setup_seconds);

/** Publish serve.* metrics from @p pass. */
void publishServe(Trace &trace, const ServePass &pass, bool own_path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH_
