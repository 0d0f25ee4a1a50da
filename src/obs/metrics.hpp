/**
 * @file
 * Deterministic metrics: named monotonic counters and fixed-bucket
 * histograms. Everything is integer-valued (op counts, virtual
 * nanoseconds), so the text dump is byte-identical across same-seed
 * runs — no float formatting in the hot path or the artifact.
 *
 * Naming rules (docs/OBSERVABILITY.md): lowercase dotted
 * `component.metric` names, e.g. "scheduler.backpressure".
 */

#ifndef SALUS_OBS_METRICS_HPP
#define SALUS_OBS_METRICS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace salus::obs {

/**
 * Fixed-bucket histogram. Bucket i counts observations with
 * value <= bounds[i] (first matching bound); one implicit overflow
 * bucket catches everything above the largest bound. Bounds are fixed
 * at registration — observing never allocates.
 */
struct Histogram
{
    std::vector<uint64_t> bounds; ///< ascending upper bounds
    std::vector<uint64_t> counts; ///< bounds.size() + 1 buckets
    uint64_t total = 0;           ///< number of observations
    uint64_t sum = 0;             ///< sum of observed values

    explicit Histogram(std::vector<uint64_t> upperBounds);
    void observe(uint64_t value);
};

/** Writes `bytes` to the file at `path`: the one writer for every obs
 *  artifact. @return false unless every byte reached the file. */
bool writeFile(const std::string &path, std::string_view bytes);

/** Registry of counters and histograms with a deterministic dump. */
class MetricsRegistry
{
  public:
    /** Increments a counter (created at zero on first use). */
    void add(std::string_view name, uint64_t delta = 1);

    /** Current counter value (0 when never incremented). */
    uint64_t counter(std::string_view name) const;

    /**
     * Registers a histogram with explicit bucket bounds; returns the
     * existing one (bounds unchanged) when already registered.
     */
    Histogram &histogram(std::string_view name,
                         std::vector<uint64_t> bounds);

    /** Records a value; auto-registers with the default power-of-two
     *  bounds when the name is new. */
    void observe(std::string_view name, uint64_t value);

    const Histogram *findHistogram(std::string_view name) const;

    size_t counterCount() const { return counters_.size(); }
    size_t histogramCount() const { return histograms_.size(); }

    /** Deterministic text dump (names sorted lexicographically). */
    std::string renderText() const;

    /** Writes renderText() to a file. @return false on I/O error. */
    bool writeText(const std::string &path) const;

    /** Default bounds for observe() auto-registration: powers of two
     *  1..4096 (suited to op counts and queue depths). */
    static const std::vector<uint64_t> &defaultBounds();

  private:
    std::map<std::string, uint64_t, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> histograms_;
};

} // namespace salus::obs

#endif // SALUS_OBS_METRICS_HPP
