#include "netlist/netlist.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace salus::netlist {

ResourceVector &
ResourceVector::operator+=(const ResourceVector &o)
{
    luts += o.luts;
    registers += o.registers;
    brams += o.brams;
    dsps += o.dsps;
    return *this;
}

bool
ResourceVector::fitsWithin(const ResourceVector &capacity) const
{
    return luts <= capacity.luts && registers <= capacity.registers &&
           brams <= capacity.brams && dsps <= capacity.dsps;
}

void
Netlist::addCell(Cell cell)
{
    if (findCell(cell.path))
        throw BitstreamError("duplicate cell path: " + cell.path);
    cells_.push_back(std::move(cell));
}

const Cell *
Netlist::findCell(const std::string &path) const
{
    for (const auto &c : cells_) {
        if (c.path == path)
            return &c;
    }
    return nullptr;
}

Cell *
Netlist::findCell(const std::string &path)
{
    return const_cast<Cell *>(
        static_cast<const Netlist *>(this)->findCell(path));
}

ResourceVector
Netlist::totalResources() const
{
    ResourceVector total;
    for (const auto &c : cells_)
        total += c.resources;
    return total;
}

ResourceVector
Netlist::resourcesUnder(const std::string &prefix) const
{
    ResourceVector total;
    for (const auto &c : cells_) {
        // Match on hierarchy boundaries only: "top/a" covers
        // "top/a" and "top/a/x" but not "top/ab".
        if (c.path == prefix ||
            (c.path.size() > prefix.size() &&
             c.path.compare(0, prefix.size(), prefix) == 0 &&
             c.path[prefix.size()] == '/')) {
            total += c.resources;
        }
    }
    return total;
}

Bytes
Netlist::serialize() const
{
    std::vector<BramSpan> ignored;
    return serializeWithSpans(ignored);
}

Bytes
Netlist::serializeWithSpans(std::vector<BramSpan> &spans) const
{
    spans.clear();
    BinaryWriter w;
    w.writeString(top_);
    w.writeU32(uint32_t(cells_.size()));
    for (const auto &c : cells_) {
        w.writeString(c.path);
        w.writeU8(uint8_t(c.kind));
        w.writeU32(c.resources.luts);
        w.writeU32(c.resources.registers);
        w.writeU32(c.resources.brams);
        w.writeU32(c.resources.dsps);
        if (c.kind == CellKind::Bram) {
            // The init contents begin right after the length prefix.
            spans.push_back(
                {c.path, w.data().size() + 4, c.init.size()});
        }
        w.writeBytes(c.init);
        w.writeU32(c.behaviorId);
        w.writeBytes(c.params);
    }
    return w.take();
}

Netlist
Netlist::deserialize(ByteView data)
{
    try {
        BinaryReader r(data);
        Netlist n(r.readString());
        uint32_t count = r.readU32();
        for (uint32_t i = 0; i < count; ++i) {
            Cell c;
            c.path = r.readString();
            uint8_t kind = r.readU8();
            if (kind > uint8_t(CellKind::Iface))
                throw BitstreamError("bad cell kind");
            c.kind = CellKind(kind);
            c.resources.luts = r.readU32();
            c.resources.registers = r.readU32();
            c.resources.brams = r.readU32();
            c.resources.dsps = r.readU32();
            c.init = r.readBytes();
            c.behaviorId = r.readU32();
            c.params = r.readBytes();
            n.addCell(std::move(c));
        }
        return n;
    } catch (const SerdeError &e) {
        throw BitstreamError(std::string("netlist parse: ") + e.what());
    }
}

Bytes
Netlist::digest() const
{
    return crypto::Sha256::digest(serialize());
}

} // namespace salus::netlist
