#include "accel/accel_ip.hpp"

#include <cstring>

#include "accel/mem_crypto.hpp"
#include "common/errors.hpp"
#include "common/log.hpp"

namespace salus::accel {

AccelIp::AccelIp(KernelId kernel, const fpga::FabricServices &services)
    : kernel_(kernel), dram_(services.dram)
{
}

uint64_t
AccelIp::readRegister(uint32_t addr)
{
    switch (addr) {
      case kAccRegStatus: return status_;
      case kAccRegOutputLen: return outputLen_;
      case kAccRegOps: return ops_;
      default:
        // Key registers and inputs are write-only on the bus.
        return 0;
    }
}

void
AccelIp::writeRegister(uint32_t addr, uint64_t value)
{
    if (addr >= kAccRegKey0 && addr < kAccRegKey0 + 32) {
        storeLe64(key_ + (addr - kAccRegKey0), value);
        return;
    }
    switch (addr) {
      case kAccRegCmd:
        if (value == 1)
            run();
        else
            status_ = kAccStatusError;
        break;
      case kAccRegInputAddr: inputAddr_ = value; break;
      case kAccRegInputLen: inputLen_ = value; break;
      case kAccRegOutputAddr: outputAddr_ = value; break;
      case kAccRegFlags: flags_ = value; break;
      case kAccRegJobId: jobId_ = value; break;
      default: break;
    }
}

void
AccelIp::run()
{
    try {
        Bytes input = dram_->read(inputAddr_, inputLen_);
        if (flags_ & kAccFlagInputAuthenticated) {
            auto opened = memOpenAuth(ByteView(key_, 32), jobId_,
                                      Dir::Input, input);
            if (!opened) {
                // Tampered DMA detected by the GCM tag.
                outputLen_ = 0;
                status_ = kAccStatusError;
                return;
            }
            input = std::move(*opened);
        } else if (flags_ & kAccFlagInputEncrypted) {
            input = memCrypt(ByteView(key_, 32), jobId_, Dir::Input,
                             input);
        }
        ops_ = kernelOps(kernel_, input);
        Bytes output = runKernel(kernel_, input);
        if (flags_ & kAccFlagAuthenticateOutput) {
            output = memSealAuth(ByteView(key_, 32), jobId_,
                                 Dir::Output, output);
        } else if (flags_ & kAccFlagEncryptOutput) {
            output = memCrypt(ByteView(key_, 32), jobId_, Dir::Output,
                              output);
        }
        dram_->write(outputAddr_, output);
        outputLen_ = output.size();
        status_ = kAccStatusDone;
    } catch (const SalusError &e) {
        logf(LogLevel::Warn, "accel", kernelName(kernel_),
             " job failed: ", e.what());
        outputLen_ = 0;
        status_ = kAccStatusError;
    }
}

void
AccelIp::registerAll()
{
    static bool done = [] {
        for (KernelId id :
             {KernelId::Conv, KernelId::Affine, KernelId::Rendering,
              KernelId::FaceDetect, KernelId::NnSearch}) {
            fpga::IpCatalog::global().registerIp(
                uint32_t(id),
                [id](const netlist::Cell &, const netlist::Netlist &,
                     const fpga::FabricServices &services) {
                    return std::make_unique<AccelIp>(id, services);
                });
        }
        return true;
    }();
    (void)done;
}

} // namespace salus::accel
