/**
 * @file
 * Live-migration messages (extension beyond the paper's single-device
 * prototype).
 *
 * `MigrationTicket` is the SM enclave's signed authorization to move
 * the active session between pool devices. It is MAC'd under the
 * CURRENT deployment's Key_attest and binds the fingerprint of the
 * secrets being retired: once the migration commits (or any other
 * event retires the source secrets), the ticket is dead — it cannot
 * be replayed to bounce the session a second time.
 *
 * `MigrationRecord` is the audit evidence of one completed migration,
 * mirroring FailoverRecord.
 */

#ifndef SALUS_SALUS_MIGRATION_HPP
#define SALUS_SALUS_MIGRATION_HPP

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace salus::core {

/** Signed authorization to move the active session to another pool
 *  device. Issued and verified by the SM enclave; the supervisor only
 *  transports it, so a malicious supervisor cannot fabricate one. */
struct MigrationTicket
{
    /** Largest pool the (fuzz-hardened) parser accepts device ids
     *  from. */
    static constexpr uint32_t kMaxDevices = 4096;

    uint32_t fromDevice = 0;
    uint32_t toDevice = 0;
    uint64_t fromDna = 0; ///< DeviceDNA of the source
    uint64_t toDna = 0;   ///< DeviceDNA of the target
    uint64_t nonce = 0;   ///< freshness (one commit per ticket)
    /** Fingerprint of the secrets the commit retires: ties the ticket
     *  to exactly one deployment epoch. */
    Bytes sourceFingerprint;
    uint64_t mac = 0; ///< SipHash under the current Key_attest

    Bytes serialize() const;
    /** @throws SerdeError on truncation or implausible fields
     *  (fuzz-hardened: the untrusted host relays these). */
    static MigrationTicket deserialize(ByteView data);
};

/** Audit record of one completed live migration. */
struct MigrationRecord
{
    uint32_t fromDevice = 0;
    uint32_t toDevice = 0;
    uint64_t atNanos = 0; ///< virtual time the migration started
    std::string reason;
    Bytes oldFingerprint; ///< retired secrets of the source device
    Bytes newFingerprint; ///< fresh secrets on the target
    uint8_t attested = 0; ///< cascaded attestation re-ran and passed
    uint64_t parkedOps = 0; ///< ops held parked through the move
};

} // namespace salus::core

#endif // SALUS_SALUS_MIGRATION_HPP
