/**
 * @file
 * The CSP-maintained shell (paper §2.2): the privileged "OS" of the
 * FPGA. It programs the reconfigurable partition through the
 * configuration port, and proxies all host I/O — register windows and
 * DMA — to the loaded custom logic.
 *
 * The honest implementation below forwards faithfully. The threat
 * model places the attacker *here*; see attacks.hpp for the malicious
 * variants used in security tests and the Table 3 bench.
 */

#ifndef SALUS_SHELL_SHELL_HPP
#define SALUS_SHELL_SHELL_HPP

#include <string>

#include "fpga/device.hpp"
#include "pcie/transactions.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"

namespace salus::shell {

/** Host-facing shell interface. */
class Shell
{
  public:
    Shell(fpga::FpgaDevice &device, sim::VirtualClock &clock,
          const sim::CostModel &cost, uint32_t partitionId = 0);
    virtual ~Shell() = default;

    /**
     * Deploys a (normally encrypted) partial bitstream into the
     * partition this shell manages. Charges PCIe transfer plus
     * configuration time to the active phase.
     */
    virtual fpga::LoadStatus deployBitstream(ByteView blob);

    /** MMIO register read through the chosen window. */
    virtual uint64_t registerRead(pcie::Window window, uint32_t addr);

    /** MMIO register write through the chosen window. */
    virtual void registerWrite(pcie::Window window, uint32_t addr,
                               uint64_t data);

    /**
     * Burst register write: delivers `count` 64-bit words to one FIFO
     * address back to back. One bus transaction (a single round trip
     * plus wire time for the payload), not `count` of them — this is
     * what the batched secure channel amortizes its crypto against.
     */
    virtual void registerBurstWrite(pcie::Window window, uint32_t addr,
                                    const uint64_t *words, size_t count);

    /** Burst register read: pops `count` words from one FIFO address. */
    virtual void registerBurstRead(pcie::Window window, uint32_t addr,
                                   uint64_t *words, size_t count);

    /** DMA host -> device DRAM. */
    virtual void dmaWrite(uint64_t addr, ByteView data);

    /** DMA device DRAM -> host. */
    virtual Bytes dmaRead(uint64_t addr, size_t len);

    /**
     * Posted (zero-clock) DMA and doorbell primitives for the
     * pipelined data plane. The window engine owns all time
     * attribution for these paths — it charges wire time and stalls
     * itself so crypto/transport overlap is modelled explicitly —
     * and faults on this plane are descriptor-granularity
     * (FaultInjector::onDmaDescriptor), not per-TLP, so the posted
     * paths never consult the register fault hook.
     */
    virtual void dmaPostedWrite(uint64_t addr, ByteView data);

    /** Posted counterpart of dmaRead: no clock spend, no RTT. */
    virtual Bytes dmaPostedRead(uint64_t addr, size_t len);

    /** Posted doorbell register write (engine charges the time). */
    virtual void dmaPostedRegWrite(pcie::Window window, uint32_t addr,
                                   uint64_t data);

    /** Posted completion/ack register read (engine charges the time). */
    virtual uint64_t dmaPostedRegRead(pcie::Window window, uint32_t addr);

    /**
     * Runs one frame-ECC scrub pass over this shell's partition (the
     * SEM IP the recovery path leans on) and charges the pass time.
     * @throws DeviceError when the partition has no configured frames.
     */
    virtual fpga::FpgaDevice::ScrubReport scrubPartition();

    /**
     * Wires the deterministic fault fabric: register transactions may
     * be lost on the bus (writes silently dropped, reads returning
     * garbage), exactly the failure surface active PCIe attacks use.
     */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        fault_ = injector;
    }

    /** Fleet position of the device behind this shell; scopes
     *  device-targeted fault rules (DeviceDead, RegFault.onDevice). */
    void setDeviceIndex(uint32_t index) { deviceIndex_ = index; }

    uint32_t partitionId() const { return partitionId_; }
    fpga::FpgaDevice &device() { return device_; }

    /** I/O accounting the shell keeps (CSP-visible telemetry). */
    struct IoStats
    {
        uint64_t registerReads = 0;
        uint64_t registerWrites = 0;
        uint64_t burstWrites = 0;
        uint64_t burstReads = 0;
        uint64_t burstWordsWritten = 0;
        uint64_t burstWordsRead = 0;
        uint64_t dmaBytesToDevice = 0;
        uint64_t dmaBytesFromDevice = 0;
        uint64_t deployments = 0;
    };

    const IoStats &ioStats() const { return stats_; }

  protected:
    /** Resolves the logic cell behind a window (may be null). */
    fpga::IpBehavior *route(pcie::Window window);

    fpga::FpgaDevice &device_;
    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    uint32_t partitionId_;
    uint32_t deviceIndex_ = 0;
    IoStats stats_;
    sim::FaultInjector *fault_ = nullptr;
};

} // namespace salus::shell

#endif // SALUS_SHELL_SHELL_HPP
