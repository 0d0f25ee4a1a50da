/**
 * @file
 * Two-clock benchmark entry point. Usage:
 *   salus_perfbench --workload NAME --seed N --seconds S --trace 0|1
 * Prints a host fingerprint line, then as the last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. Exits 0 only
 * when every correctness check passed.
 */

#include <unistd.h>
#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "crypto/backend.hpp"
#include "workloads.hpp"

using namespace salus::perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** CPUID brand string (x86-64), e.g. "Intel(R) Xeon(R) Processor". */
std::string
cpuModel()
{
#if defined(__x86_64__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char *>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
#else
    return "unknown";
#endif
}

/** Results from different hosts or crypto backends must never be
 *  compared blind: every run prints what it ran on. */
void
printFingerprint(const std::string &workload, const RunConfig &cfg,
                 const RunResult &r)
{
    const char *scalar = std::getenv("SALUS_FORCE_SCALAR");
    std::printf("{\"host\": {\"cpu\": %s, \"nproc\": %ld, "
                "\"build_type\": %s, \"compiler\": %s, "
                "\"crypto_backend\": %s, \"salus_force_scalar\": %s}, "
                "\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"samples\": {",
                jsonString(cpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(__VERSION__).c_str(),
                jsonString(salus::crypto::backendSummary()).c_str(),
                scalar ? jsonString(scalar).c_str() : "null",
                jsonString(workload).c_str(), (unsigned long long)cfg.seed,
                cfg.seconds, cfg.trace ? 1 : 0);
    const char *sep = "";
    for (const auto &[name, n] : r.samples) {
        std::printf("%s%s: %llu", sep, jsonString(name).c_str(),
                    (unsigned long long)n);
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: salus_perfbench --workload "
                 "deploy_u200|tenant_traffic|fleet_churn --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    RunConfig cfg;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        char *end = nullptr;
        const char *val = argv[i + 1];
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            cfg.seed = std::strtoull(val, &end, 10);
            haveSeed = *val && !*end;
        } else if (key == "--seconds") {
            cfg.seconds = std::strtod(val, &end);
            haveSeconds = *val && !*end && cfg.seconds >= 1;
        } else if (key == "--trace") {
            haveTrace = !std::strcmp(val, "0") || !std::strcmp(val, "1");
            cfg.trace = !std::strcmp(val, "1");
        } else {
            return usage();
        }
    }
    if (argc % 2 != 1 || !haveSeed || !haveSeconds || !haveTrace)
        return usage();

    RunResult r;
    if (workload == "deploy_u200")
        r = runDeployU200(cfg);
    else if (workload == "tenant_traffic")
        r = runTenantTraffic(cfg);
    else if (workload == "fleet_churn")
        r = runFleetChurn(cfg);
    else
        return usage();
    if (cfg.trace)
        completeLayers(r);

    printFingerprint(workload, cfg, r);
    bool correct = r.ledger.failed() == 0 && r.ledger.attempted() > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                (unsigned long long)r.ledger.attempted(),
                (unsigned long long)r.ledger.failed());
    const char *sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", sep,
                    jsonString(name).c_str(), m.value,
                    jsonString(m.unit).c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
