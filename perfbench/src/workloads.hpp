/**
 * @file
 * The three workloads. Each takes its inputs only from the seed, runs
 * for the configured host seconds, checks every output, and returns
 * the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run). See README.md for what each measures and why.
 */

#ifndef SALUS_PERFBENCH_WORKLOADS_HPP
#define SALUS_PERFBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace salus::perfbench {

RunResult runDeployU200(const RunConfig &cfg);
RunResult runTenantTraffic(const RunConfig &cfg);
RunResult runFleetChurn(const RunConfig &cfg);

} // namespace salus::perfbench

#endif // SALUS_PERFBENCH_WORKLOADS_HPP
