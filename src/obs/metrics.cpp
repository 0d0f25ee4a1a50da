#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace salus::obs {

Histogram::Histogram(std::vector<uint64_t> upperBounds)
    : bounds(std::move(upperBounds))
{
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
    counts.assign(bounds.size() + 1, 0);
}

void
Histogram::observe(uint64_t value)
{
    size_t idx = std::lower_bound(bounds.begin(), bounds.end(), value) -
                 bounds.begin();
    ++counts[idx];
    ++total;
    sum += value;
}

void
MetricsRegistry::add(std::string_view name, uint64_t delta)
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        counters_.emplace(std::string(name), delta);
    else
        it->second += delta;
}

uint64_t
MetricsRegistry::counter(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<uint64_t> bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(std::string(name),
                          Histogram(std::move(bounds)))
                 .first;
    }
    return it->second;
}

void
MetricsRegistry::observe(std::string_view name, uint64_t value)
{
    histogram(name, defaultBounds()).observe(value);
}

const Histogram *
MetricsRegistry::findHistogram(std::string_view name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

const std::vector<uint64_t> &
MetricsRegistry::defaultBounds()
{
    static const std::vector<uint64_t> kBounds = {
        1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
    return kBounds;
}

std::string
MetricsRegistry::renderText() const
{
    char line[160];
    std::string out = "# salus-metrics v1\n";
    for (const auto &[name, value] : counters_) {
        std::snprintf(line, sizeof(line), "counter %s %llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(value));
        out += line;
    }
    for (const auto &[name, h] : histograms_) {
        std::snprintf(line, sizeof(line),
                      "histogram %s count %llu sum %llu\n",
                      name.c_str(),
                      static_cast<unsigned long long>(h.total),
                      static_cast<unsigned long long>(h.sum));
        out += line;
        for (size_t i = 0; i < h.bounds.size(); ++i) {
            std::snprintf(
                line, sizeof(line), "  le %llu %llu\n",
                static_cast<unsigned long long>(h.bounds[i]),
                static_cast<unsigned long long>(h.counts[i]));
            out += line;
        }
        std::snprintf(line, sizeof(line), "  le +inf %llu\n",
                      static_cast<unsigned long long>(h.counts.back()));
        out += line;
    }
    return out;
}

bool
writeFile(const std::string &path, std::string_view bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    return std::fclose(f) == 0 && written == bytes.size();
}

bool
MetricsRegistry::writeText(const std::string &path) const
{
    return writeFile(path, renderText());
}

} // namespace salus::obs
