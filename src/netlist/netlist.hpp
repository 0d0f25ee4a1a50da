/**
 * @file
 * Post-synthesis netlist model. A custom logic (CL) design is a flat
 * list of hierarchically named cells: logic cells that reference a
 * behavioural IP implementation by id (the simulator's stand-in for
 * LUT configuration), BRAM cells that carry initialization contents,
 * and interface cells. Each cell carries a resource vector so Table 5
 * style utilization reports come from the design itself.
 *
 * The SM logic reserves BRAM cells for Key_attest / Key_session /
 * Ctr_session; the bitstream compiler records their placed locations
 * in a logic-location file so the SM enclave can patch them at the
 * bitstream level (paper §2.3, §4.2).
 */

#ifndef SALUS_NETLIST_NETLIST_HPP
#define SALUS_NETLIST_NETLIST_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace salus::netlist {

/** FPGA resource consumption (paper Table 5 columns plus DSP). */
struct ResourceVector
{
    uint32_t luts = 0;
    uint32_t registers = 0;
    uint32_t brams = 0;
    uint32_t dsps = 0;

    ResourceVector &operator+=(const ResourceVector &o);

    /** True when every component fits within `capacity`. */
    bool fitsWithin(const ResourceVector &capacity) const;
};

/** Kind of a netlist cell. */
enum class CellKind : uint8_t {
    Logic = 0, ///< behavioural logic block (references the IP catalog)
    Bram = 1,  ///< block RAM with initialization contents
    Iface = 2, ///< interface stub (AXI ports etc.), no behaviour
};

/** One placed-and-routed cell. */
struct Cell
{
    std::string path;   ///< hierarchical name, '/'-separated
    CellKind kind = CellKind::Logic;
    ResourceVector resources;
    /** BRAM initialization contents (Bram cells only). */
    Bytes init;
    /** Behaviour id into the IP catalog (Logic cells only). */
    uint32_t behaviorId = 0;
    /** Free-form parameter blob handed to the behaviour model. */
    Bytes params;
};

/** Location of one BRAM cell's init bytes inside a serialization. */
struct BramSpan
{
    std::string path;
    size_t offset; ///< byte offset of the init contents
    size_t length; ///< init length in bytes
};

/** A complete CL design as emitted by "synthesis". */
class Netlist
{
  public:
    Netlist() = default;
    explicit Netlist(std::string topName) : top_(std::move(topName)) {}

    const std::string &top() const { return top_; }
    void setTop(std::string name) { top_ = std::move(name); }

    /** Appends a cell; paths must be unique. */
    void addCell(Cell cell);

    const std::vector<Cell> &cells() const { return cells_; }
    std::vector<Cell> &cells() { return cells_; }

    /** Looks a cell up by hierarchical path. */
    const Cell *findCell(const std::string &path) const;
    Cell *findCell(const std::string &path);

    /** Total resource usage over all cells. */
    ResourceVector totalResources() const;

    /** Resource usage of cells under the given hierarchy prefix. */
    ResourceVector resourcesUnder(const std::string &prefix) const;

    /** Deterministic wire encoding (used by the compiler). */
    Bytes serialize() const;

    /**
     * Serializes and reports where each BRAM cell's init bytes landed,
     * so the bitstream compiler can emit a logic-location file.
     */
    Bytes serializeWithSpans(std::vector<BramSpan> &spans) const;

    /** Parses a serialized netlist; throws BitstreamError on garbage. */
    static Netlist deserialize(ByteView data);

    /** SHA-256 over the serialized form. */
    Bytes digest() const;

  private:
    std::string top_;
    std::vector<Cell> cells_;
};

} // namespace salus::netlist

#endif // SALUS_NETLIST_NETLIST_HPP
