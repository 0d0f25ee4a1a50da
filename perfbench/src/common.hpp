/**
 * @file
 * Shared pieces of the two-clock benchmark: host timers, seeded input
 * generation, order statistics, the correctness ledger and the metric
 * tables every workload reports against.
 *
 * Clock convention: a metric whose name contains "virtual" is read
 * from sim::VirtualClock (the calibrated cost model, deterministic per
 * seed); every other time is host time from std::chrono::steady_clock.
 */

#ifndef SALUS_PERFBENCH_COMMON_HPP
#define SALUS_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/clock.hpp"

namespace salus::perfbench {

/** Host stopwatch on std::chrono::steady_clock. */
class HostTimer
{
  public:
    HostTimer() : start_(std::chrono::steady_clock::now()) {}
    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** SplitMix64 stream; (seed, stream) fully determines the sequence. */
class Rng
{
  public:
    Rng(uint64_t seed, uint64_t stream)
        : state_(seed * 0x9e3779b97f4a7c15ull ^ (stream + 1) * 0xbf58476d1ce4e5b9ull)
    {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Fills `len` bytes with the stream. */
    void fill(uint8_t *out, size_t len);

  private:
    uint64_t state_;
};

/** Derives the testbed DRBG seed of input `index` from the run seed. */
uint64_t subSeed(uint64_t seed, uint64_t index);

/** Median of host samples (mean of the middle two when even). */
double median(std::vector<double> v);
/**
 * Fast decile (10th percentile) of host duration samples. The cores of
 * a shared host are contended by other tenants in bursts of a few
 * hundred microseconds, and the contended share drifts over minutes,
 * moving medians and means of host time by up to a half between runs.
 * Work is therefore sampled in pieces shorter than a millisecond
 * where the API allows, and reported at the speed of its least
 * contended decile: the program's own cost, not the neighbours'.
 */
double fastDecile(std::vector<double> v);
/** Nearest-rank quantile of virtual samples: always an observed
 *  value, so it compares exactly across runs. */
sim::Nanos nearestRank(std::vector<sim::Nanos> v, double q);

/**
 * The seeded CL a tenant deploys: an accelerator footprint plus a few
 * auxiliary BRAM cells with seeded names and contents. The extra
 * cells change the size of the published metadata, which the cascaded
 * attestation carries over the WAN, so the virtual boot time depends
 * on the design (and thus on the seed) by a few microseconds.
 */
struct DesignInput
{
    netlist::Cell accel;
    std::vector<netlist::Cell> extra;
};
DesignInput makeDesign(Rng &rng, bool paperScale);

/** The Figure 9 phases of one deployment, in integer nanos. */
struct BootPhases
{
    std::vector<std::string> names;
    std::vector<sim::Nanos> nanos;
    sim::Nanos total = 0;
    bool operator==(const BootPhases &o) const
    {
        return nanos == o.nanos && total == o.total;
    }
};
/** Snapshot of the clock's per-phase totals for the Fig. 9 phases. */
BootPhases bootTotals(const sim::VirtualClock &clock);
/** after - before, phase by phase. */
BootPhases bootDelta(const BootPhases &after, const BootPhases &before);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/**
 * Correctness ledger. Every unit of work the benchmark checks is one
 * attempt; every failed check is one failure. Any failure makes the
 * run incorrect.
 */
class Ledger
{
  public:
    void attempt(uint64_t n = 1) { attempted_ += n; }
    /** Records a failure when !ok; @return ok. */
    bool check(bool ok, const std::string &what);
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** One reported value. */
struct Metric
{
    double value = 0;
    const char *unit = "";
};
using MetricMap = std::map<std::string, Metric>;

/** Run parameters, all from the command line. */
struct RunConfig
{
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

/** What a workload hands back to main(). */
struct RunResult
{
    Ledger ledger;
    MetricMap metrics;
    /** Sample counts behind the metrics ("n stated"). */
    std::map<std::string, uint64_t> samples;
};

/**
 * Raw end-to-end figures of one untraced run. Every workload fills the
 * same fields, each with its own unit of work (see README.md), so the
 * benchmark reports the same metric names on every workload.
 */
struct EndToEnd
{
    // Host figures are fine-grained samples over the whole measured
    // window, reported at their fast decile (see fastDecile); virtual
    // figures cover only the fixed reference block, so they are
    // identical on every host and every rerun of the seed.
    std::vector<double> setupS;         ///< host s per set-up
    std::vector<double> deployHostS;    ///< host s per runDeployment
    std::vector<double> secondsPerUnit; ///< host s per unit of work
    std::vector<double> secondsPerMb;   ///< host s per bulk MB
    double units = 0;                   ///< units of work completed
    std::vector<sim::Nanos> bootVirtual; ///< Fig. 9 total per deployment
    double refUnits = 0;                ///< units in the reference block
    sim::Nanos refUnitsVirtual = 0;     ///< their virtual time
    std::vector<sim::Nanos> latency;    ///< reference-block latencies
    double refBulkBytes = 0;
    sim::Nanos refBulkVirtual = 0;
    double rssMb = 0; ///< peak RSS after set-up + reference block
};

/** Renders the end-to-end metric set (the BENCHMARK.json list);
 *  a value that came out zero is a failed check. */
void renderEndToEnd(const EndToEnd &e, RunResult &out);

/** Every per-layer metric name with its unit, in report order. */
struct LayerSpec
{
    const char *name;
    const char *unit;
};
const std::vector<LayerSpec> &layerSpecs();

/** Fills every per-layer metric the workload did not set with 0 (the
 *  layer is not exercised on this workload) and rejects unknown ones. */
void completeLayers(RunResult &out);

} // namespace salus::perfbench

#endif // SALUS_PERFBENCH_COMMON_HPP
