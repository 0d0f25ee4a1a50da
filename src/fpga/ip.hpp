/**
 * @file
 * Behavioural IP framework. A loaded design's logic cells are
 * instantiated as IpBehavior objects — the simulator's equivalent of
 * configured fabric. Behaviour implementations register themselves in
 * the IpCatalog under the behaviour id that netlist logic cells
 * reference.
 *
 * Crucially, behaviours get their secrets exclusively from the BRAM
 * cells of the netlist that was reconstructed from configuration
 * memory — so whatever the bitstream manipulation wrote (or an
 * attacker corrupted) is exactly what the logic sees.
 */

#ifndef SALUS_FPGA_IP_HPP
#define SALUS_FPGA_IP_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/bytes.hpp"
#include "netlist/netlist.hpp"

namespace salus::fpga {

class DeviceDram;
class LoadedDesign;

/** The 57-bit factory-programmed device identifier (DNA_PORTE2). */
struct DeviceDna
{
    uint64_t value = 0; ///< 57 significant bits

    /** Canonical 8-byte little-endian encoding used in MACs. */
    Bytes bytes() const;

    bool operator==(const DeviceDna &o) const { return value == o.value; }
};

/** Fabric facilities available to instantiated logic. */
struct FabricServices
{
    DeviceDna dna;           ///< readable via the DNA port
    DeviceDram *dram = nullptr; ///< on-card DRAM for memory-mapped IPs
};

/**
 * One configured logic block with an AXI4-Lite-style register
 * interface. Addresses are byte offsets within the block's window.
 */
class IpBehavior
{
  public:
    virtual ~IpBehavior() = default;

    /** Register read; unknown addresses return 0 (AXI DECERR analog). */
    virtual uint64_t readRegister(uint32_t addr) = 0;

    /** Register write. */
    virtual void writeRegister(uint32_t addr, uint64_t value) = 0;

    /**
     * Second wiring pass after all cells of a design exist, so blocks
     * can resolve intra-CL connections (e.g. the SM logic's forward
     * port to the accelerator).
     */
    virtual void connect(LoadedDesign &) {}
};

/** Factory signature: cell being instantiated + whole design view. */
using IpFactory = std::function<std::unique_ptr<IpBehavior>(
    const netlist::Cell &cell, const netlist::Netlist &design,
    const FabricServices &services)>;

/** Global registry of behaviour implementations. */
class IpCatalog
{
  public:
    /** The process-wide catalog. */
    static IpCatalog &global();

    /** Registers (or replaces) a behaviour implementation. */
    void registerIp(uint32_t behaviorId, IpFactory factory);

    /**
     * Instantiates the behaviour for a logic cell.
     * @throws DeviceError for unknown behaviour ids.
     */
    std::unique_ptr<IpBehavior>
    instantiate(const netlist::Cell &cell,
                const netlist::Netlist &design,
                const FabricServices &services) const;

  private:
    std::map<uint32_t, IpFactory> factories_;
};

/** Well-known behaviour ids. */
constexpr uint32_t kIpLoopback = 2;  ///< test echo block
constexpr uint32_t kIpSmLogic = 1;   ///< Salus secure-manager logic
constexpr uint32_t kIpConv = 10;
constexpr uint32_t kIpAffine = 11;
constexpr uint32_t kIpRendering = 12;
constexpr uint32_t kIpFaceDetect = 13;
constexpr uint32_t kIpNnSearch = 14;

/** Registers the built-in test IPs (idempotent). */
void ensureBuiltinIps();

} // namespace salus::fpga

#endif // SALUS_FPGA_IP_HPP
