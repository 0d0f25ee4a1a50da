/**
 * @file
 * The generic accelerator fabric block. Each of the five kernels is
 * deployed as an AccelIp instance whose behaviour id selects the
 * kernel; the block pulls its input from device DRAM, runs the
 * developer's AES-CTR decryption at the memory interface (§6.4),
 * executes the kernel, optionally re-encrypts, and writes the result
 * back to DRAM.
 *
 * Register map (byte offsets within the accelerator window, reachable
 * both via the SM secure channel and the direct window):
 *   0x00 CMD         (w) 1 = run
 *   0x08 STATUS      (r) 0 idle, 1 done, 2 error
 *   0x10 INPUT_ADDR  (w)
 *   0x18 INPUT_LEN   (w)
 *   0x20 OUTPUT_ADDR (w)
 *   0x28 FLAGS       (w) bit0 input encrypted, bit1 encrypt output
 *   0x30 OUTPUT_LEN  (r)
 *   0x38 JOB_ID      (w) CTR nonce basis
 *   0x40..0x58 KEY0..KEY3 (w, never readable) data key, via §4.5
 *   0x60 OPS         (r) arithmetic ops of the last job (cycle model)
 */

#ifndef SALUS_ACCEL_ACCEL_IP_HPP
#define SALUS_ACCEL_ACCEL_IP_HPP

#include "accel/kernels.hpp"
#include "fpga/device.hpp"

namespace salus::accel {

/** Accelerator register offsets. */
constexpr uint32_t kAccRegCmd = 0x00;
constexpr uint32_t kAccRegStatus = 0x08;
constexpr uint32_t kAccRegInputAddr = 0x10;
constexpr uint32_t kAccRegInputLen = 0x18;
constexpr uint32_t kAccRegOutputAddr = 0x20;
constexpr uint32_t kAccRegFlags = 0x28;
constexpr uint32_t kAccRegOutputLen = 0x30;
constexpr uint32_t kAccRegJobId = 0x38;
constexpr uint32_t kAccRegKey0 = 0x40;
constexpr uint32_t kAccRegOps = 0x60;

/** FLAGS bits. */
constexpr uint64_t kAccFlagInputEncrypted = 1;
constexpr uint64_t kAccFlagEncryptOutput = 2;
/** Authenticated (AES-GCM) memory mode — the integrity extension the
 *  paper delegates to developers (§3.1): DMA tamper is detected, not
 *  just garbled. Mutually exclusive with the CTR flags per direction. */
constexpr uint64_t kAccFlagInputAuthenticated = 4;
constexpr uint64_t kAccFlagAuthenticateOutput = 8;

/** Accelerator STATUS values. */
constexpr uint64_t kAccStatusIdle = 0;
constexpr uint64_t kAccStatusDone = 1;
constexpr uint64_t kAccStatusError = 2;

/** Fabric-side behaviour wrapping one kernel. */
class AccelIp : public fpga::IpBehavior
{
  public:
    AccelIp(KernelId kernel, const fpga::FabricServices &services);

    uint64_t readRegister(uint32_t addr) override;
    void writeRegister(uint32_t addr, uint64_t value) override;

    /** Registers all five kernels in the IP catalog (idempotent). */
    static void registerAll();

  private:
    void run();

    KernelId kernel_;
    fpga::DeviceDram *dram_;

    uint64_t status_ = kAccStatusIdle;
    uint64_t inputAddr_ = 0, inputLen_ = 0, outputAddr_ = 0;
    uint64_t flags_ = 0, jobId_ = 0, outputLen_ = 0, ops_ = 0;
    uint8_t key_[32] = {};
};

} // namespace salus::accel

#endif // SALUS_ACCEL_ACCEL_IP_HPP
