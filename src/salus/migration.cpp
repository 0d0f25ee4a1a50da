#include "salus/migration.hpp"

#include "common/serde.hpp"

namespace salus::core {

Bytes
MigrationTicket::serialize() const
{
    BinaryWriter w;
    w.writeU32(0x4d494754); // "MIGT"
    w.writeU32(fromDevice);
    w.writeU32(toDevice);
    w.writeU64(fromDna);
    w.writeU64(toDna);
    w.writeU64(nonce);
    w.writeBytes(sourceFingerprint);
    w.writeU64(mac);
    return w.take();
}

MigrationTicket
MigrationTicket::deserialize(ByteView data)
{
    BinaryReader r(data);
    if (r.readU32() != 0x4d494754)
        throw SerdeError("bad migration-ticket magic");
    MigrationTicket t;
    t.fromDevice = r.readU32();
    t.toDevice = r.readU32();
    if (t.fromDevice >= kMaxDevices || t.toDevice >= kMaxDevices)
        throw SerdeError("migration ticket names an absurd device");
    t.fromDna = r.readU64();
    t.toDna = r.readU64();
    t.nonce = r.readU64();
    t.sourceFingerprint = r.readBytes();
    if (t.sourceFingerprint.size() != 32)
        throw SerdeError("migration ticket fingerprint is not 32 bytes");
    t.mac = r.readU64();
    return t;
}

} // namespace salus::core
