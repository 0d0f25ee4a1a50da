/**
 * @file
 * Per-layer measurement for the traced run. The layer probes time the
 * benchmark's own calls into one module's public functions (crypto,
 * bitstream, fpga, tee, sm_enclave, user_enclave) on the workload's
 * own CL artifact, so they are identical code on every workload and
 * differ only in the artifact size. TraceTap reads the virtual spans
 * and phase totals that obs/sim already record.
 */

#ifndef SALUS_PERFBENCH_PROBES_HPP
#define SALUS_PERFBENCH_PROBES_HPP

#include "bench_util.hpp"
#include "common.hpp"
#include "salus/testbed.hpp"

namespace salus::perfbench {

/**
 * Runs every layer probe on the workload's own artifact: the seeded
 * design `index` compiled for the paper-scale or test-scale device.
 * Adds the crypto.*, bitstream.*, fpga.*, tee.*, sm_enclave.* and
 * user_enclave.* metrics to `out`.
 */
void runLayerProbes(uint64_t seed, uint64_t index, bool paperScale,
                    RunResult &out);

/** A testbed with seeded design `index` installed; `installS`, when
 *  given, receives the host seconds of installCl alone. */
std::unique_ptr<core::Testbed> makeTestbed(uint64_t seed, uint64_t index,
                                           bool paperScale,
                                           uint32_t devices = 1,
                                           double *installS = nullptr);

/** Per-run trace capture: ObsCapture over the world's clock plus an
 *  RPC counter on its network. */
class TraceTap
{
  public:
    explicit TraceTap(core::Testbed &tb);
    ~TraceTap();
    TraceTap(const TraceTap &) = delete;
    TraceTap &operator=(const TraceTap &) = delete;

    obs::TraceRecorder &trace() { return capture_.trace(); }
    uint64_t rpcs() const { return rpcs_; }
    /** Retry backoff slices seen by the trace. */
    uint64_t retries();
    /** Checks that the trace's span sum of each phase equals the
     *  clock's total for it over the same interval. */
    void checkPhase(const std::string &phase, sim::Nanos clockTotal,
                    Ledger &ledger);

  private:
    core::Testbed &tb_;
    bench::ObsCapture capture_;
    uint64_t rpcs_ = 0;
};

/** Adds the virtual.* Fig. 9 phase metrics of one deployment, after
 *  checking that they sum to its total exactly. */
void putBootPhases(const BootPhases &p, RunResult &out);

} // namespace salus::perfbench

#endif // SALUS_PERFBENCH_PROBES_HPP
