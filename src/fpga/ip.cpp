#include "fpga/ip.hpp"

#include <map>

#include "common/errors.hpp"

namespace salus::fpga {

Bytes
DeviceDna::bytes() const
{
    Bytes out(8);
    storeLe64(out.data(), value);
    return out;
}

IpCatalog &
IpCatalog::global()
{
    static IpCatalog catalog;
    return catalog;
}

void
IpCatalog::registerIp(uint32_t behaviorId, IpFactory factory)
{
    factories_[behaviorId] = std::move(factory);
}

std::unique_ptr<IpBehavior>
IpCatalog::instantiate(const netlist::Cell &cell,
                       const netlist::Netlist &design,
                       const FabricServices &services) const
{
    auto it = factories_.find(cell.behaviorId);
    if (it == factories_.end()) {
        throw DeviceError("no behaviour registered for id " +
                          std::to_string(cell.behaviorId) + " (cell " +
                          cell.path + ")");
    }
    return it->second(cell, design, services);
}

namespace {

/**
 * Minimal test IP: a bank of 16 scratch registers plus an adder.
 * Register map: 0x00..0x78 scratch; 0x80 returns reg0+reg1.
 */
class LoopbackIp : public IpBehavior
{
  public:
    uint64_t
    readRegister(uint32_t addr) override
    {
        if (addr == 0x80)
            return regs_[0] + regs_[1];
        uint32_t idx = addr / 8;
        return idx < 16 ? regs_[idx] : 0;
    }

    void
    writeRegister(uint32_t addr, uint64_t value) override
    {
        uint32_t idx = addr / 8;
        if (idx < 16)
            regs_[idx] = value;
    }

  private:
    uint64_t regs_[16] = {};
};

} // namespace

void
ensureBuiltinIps()
{
    static bool done = [] {
        IpCatalog::global().registerIp(
            kIpLoopback,
            [](const netlist::Cell &, const netlist::Netlist &,
               const FabricServices &) {
                return std::make_unique<LoopbackIp>();
            });
        return true;
    }();
    (void)done;
}

} // namespace salus::fpga
