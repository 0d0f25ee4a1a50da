/**
 * @file
 * Malicious shell behaviours implementing the threat-model attacks of
 * paper §3.1 / Table 3. Each knob corresponds to a concrete attack
 * the security tests and the Table 3 bench exercise:
 *
 *  - bitstream tampering / substitution  (integrity attack at boot, ①)
 *  - register snooping                   (confidentiality on PCIe, ③)
 *  - register data tampering             (integrity on PCIe, ③)
 *  - transaction replay                  (freshness on PCIe, ③)
 *  - configuration-memory scan           (ICAP readback, §5.1.2)
 *
 * The malicious shell also keeps a copy of every bitstream blob it is
 * asked to deploy — the CSP can always do that — so tests can assert
 * the blob alone is useless without Key_device.
 */

#ifndef SALUS_SHELL_ATTACKS_HPP
#define SALUS_SHELL_ATTACKS_HPP

#include <optional>
#include <vector>

#include "shell/shell.hpp"

namespace salus::shell {

/** Attack configuration for a MaliciousShell. */
struct AttackPlan
{
    /** Flip the low bit of the blob byte at `tamperOffset` pre-load. */
    bool tamperBitstream = false;
    size_t tamperOffset = 0;

    /** Replace the deployed blob entirely with `substitute`. */
    std::optional<Bytes> substituteBitstream;

    /** XOR register data crossing the SM window with this mask. */
    uint64_t smWindowDataTamperMask = 0;

    /** Tamper with DMA payloads (flip first byte). */
    bool tamperDma = false;

    /**
     * Masking attack on fleet supervision: swallow heartbeat commands
     * before they reach the fabric and fabricate plausible "alive"
     * responses (status ok, nonce echo, running beat count). The
     * forged response MAC cannot be computed without Key_attest, so
     * the supervisor's MAC check must quarantine the device instead
     * of trusting the shell's word.
     */
    bool forgeHeartbeats = false;
};

/** A shell under CSP-adversary control. */
class MaliciousShell : public Shell
{
  public:
    MaliciousShell(fpga::FpgaDevice &device, sim::VirtualClock &clock,
                   const sim::CostModel &cost, AttackPlan plan,
                   uint32_t partitionId = 0);

    fpga::LoadStatus deployBitstream(ByteView blob) override;
    uint64_t registerRead(pcie::Window window, uint32_t addr) override;
    void registerWrite(pcie::Window window, uint32_t addr,
                       uint64_t data) override;
    void registerBurstWrite(pcie::Window window, uint32_t addr,
                            const uint64_t *words, size_t count) override;
    void registerBurstRead(pcie::Window window, uint32_t addr,
                           uint64_t *words, size_t count) override;
    void dmaWrite(uint64_t addr, ByteView data) override;
    Bytes dmaRead(uint64_t addr, size_t len) override;

    /** Every register transaction observed so far (the shell always
     *  snoops). */
    const std::vector<pcie::RegisterTxn> &snoopLog() const
    {
        return snoopLog_;
    }

    /** The last bitstream blob the host asked us to deploy. */
    const Bytes &capturedBitstream() const { return capturedBitstream_; }

    /**
     * Replays all previously recorded SM-window writes in order —
     * the freshness attack on the secure register channel.
     * @return number of transactions replayed.
     */
    size_t replayRecordedSmWrites();

    /**
     * Attempts an ICAP scan of the partition's configuration memory
     * (the attack §5.1.2 closes by disabling readback).
     * @return frames when readback is enabled, nullopt when blocked.
     */
    std::optional<Bytes> tryConfigScan();

    AttackPlan &plan() { return plan_; }

  private:
    /** The XOR mask applied to register data crossing `window`. */
    uint64_t dataMask(pcie::Window window) const
    {
        return window == pcie::Window::SmSecure
                   ? plan_.smWindowDataTamperMask
                   : 0;
    }

    AttackPlan plan_;
    std::vector<pcie::RegisterTxn> snoopLog_;
    Bytes capturedBitstream_;
    // Heartbeat-forging state: the last nonce the host loaded and
    // whether the next SM-window reads should be fabricated.
    uint64_t forgeNonce_ = 0;
    uint64_t forgeCount_ = 0;
    bool forging_ = false;
};

} // namespace salus::shell

#endif // SALUS_SHELL_ATTACKS_HPP
