/**
 * @file
 * The simulated TEE-enabled CPU package (Intel SGX analog, paper §2.1).
 *
 * The platform holds fused root secrets and performs the operations
 * real hardware restricts to enclave mode: key derivation (EGETKEY),
 * report generation/verification (EREPORT + local attestation), and
 * quote generation through the quoting facility whose attestation key
 * the manufacturer certifies at provisioning time.
 *
 * Enclaves are C++ objects deriving from `Enclave`; the simulation's
 * isolation boundary is their class interface — anything a subclass
 * keeps private is "inside" the enclave, anything serialized out of a
 * public method crosses the untrusted boundary.
 */

#ifndef SALUS_TEE_PLATFORM_HPP
#define SALUS_TEE_PLATFORM_HPP

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/ed25519.hpp"
#include "crypto/random.hpp"
#include "tee/quote.hpp"
#include "tee/report.hpp"

namespace salus::tee {

/** What gets measured when an enclave is "loaded". */
struct EnclaveImage
{
    std::string name;   ///< human-readable identity (debug only)
    std::string signer; ///< vendor identity (hashed into MRSIGNER)
    uint16_t isvSvn = 1;
    Bytes code;         ///< stand-in for the measured code pages

    /** MRENCLAVE = SHA-256 over the code image. */
    Measurement measure() const;

    /** MRSIGNER analog = SHA-256 over the signer identity. */
    Measurement signerMeasurement() const;
};

class Enclave;

/** One TEE-enabled CPU package. */
class TeePlatform
{
  public:
    /**
     * @param platformId stable identity (PPID analog).
     * @param rng entropy for the root secrets.
     * @param cpuSvn the microcode/TCB level this platform runs at.
     */
    TeePlatform(std::string platformId, crypto::RandomSource &rng,
                uint16_t cpuSvn = 1);

    const std::string &platformId() const { return platformId_; }
    uint16_t cpuSvn() const { return cpuSvn_; }

    /** The attestation public key the manufacturer certifies. */
    const Bytes &attestationPublicKey() const
    {
        return attestKey_.publicKey;
    }

    /** Installs the manufacturer-issued PCK certificate. */
    void installPckCertificate(PckCertificate cert);
    bool provisioned() const { return provisioned_; }

    /**
     * Generates a quote over a report targeted at the quoting
     * facility — the ECDSA/DCAP flow of §2.1.
     * @throws TeeError if the report does not verify or the platform
     *         was never provisioned.
     */
    Quote generateQuote(const Report &report);

    /** Measurement reports must target to be quotable. */
    const Measurement &quotingTarget() const { return qeMeasurement_; }

    // ---- Hardware monotonic counters --------------------------------
    // SGX platform-service counter analog: named, non-volatile,
    // forward-only. Enclaves version sealed state against them to
    // detect rollback of (untrusted) persistent storage across
    // restarts. Counters outlive enclave instances by construction —
    // they live on the platform, not in the enclave object.

    /** Current value of a named counter (0 if never touched). */
    uint64_t monotonicRead(const std::string &counterId) const;

    /** Atomically bumps a named counter; returns the new value. */
    uint64_t monotonicIncrement(const std::string &counterId);

    /**
     * Forward-only catch-up for the store-then-increment crash
     * window: a freshly unsealed journal may prove version
     * counter+1 was durably stored before the increment landed.
     * @throws TeeError when `value` is behind the counter or more
     *         than one step ahead (either would break rollback
     *         protection).
     */
    void monotonicAdvanceTo(const std::string &counterId, uint64_t value);

  private:
    friend class Enclave;

    /** EGETKEY: per-enclave report key (hardware-internal). */
    Bytes reportKeyFor(const Measurement &mrenclave) const;

    /** EGETKEY: per-enclave seal key (hardware-internal). */
    Bytes sealKeyFor(const Measurement &mrenclave) const;

    std::string platformId_;
    uint16_t cpuSvn_;
    Bytes rootSealKey_;
    crypto::Ed25519KeyPair attestKey_;
    Measurement qeMeasurement_;
    PckCertificate pck_;
    bool provisioned_ = false;
    std::map<std::string, uint64_t> monotonicCounters_;
    /** Loaded-enclave count; salts each instance's DRBG so a fresh
     *  instance of the same image never replays its predecessor's
     *  random stream (kept per-platform, not process-global, so two
     *  same-seed testbeds stay trace-identical). */
    uint64_t enclaveInstances_ = 0;
};

/**
 * Base class for enclave programs. Protected methods are the
 * "instructions" only code inside the enclave can execute.
 */
class Enclave
{
  public:
    Enclave(TeePlatform &platform, EnclaveImage image);
    virtual ~Enclave() = default;

    const Measurement &measurement() const { return measurement_; }
    const std::string &name() const { return image_.name; }
    TeePlatform &platform() { return platform_; }

  protected:
    /**
     * EREPORT: creates a report consumable by the enclave whose
     * measurement is `target`, binding up to 64 bytes of report data.
     */
    Report createReport(const Measurement &target,
                        ByteView reportData) const;

    /** Verifies a report that was targeted at *this* enclave. */
    bool verifyLocalReport(const Report &report) const;

    /** Quote over this enclave's identity (goes through the QE). */
    Quote createQuote(ByteView reportData) const;

    /** Seals data to this enclave's identity (AES-GCM). */
    Bytes seal(ByteView plaintext) const;

    /** Unseals; nullopt if tampered or sealed by another identity. */
    std::optional<Bytes> unseal(ByteView sealed) const;

    /** Enclave-private randomness (RDRAND analog). */
    crypto::RandomSource &rng() const { return *rng_; }

  private:
    // The LA helpers are enclave-side library code and use the
    // protected "instructions" on the enclave's behalf.
    friend class LocalAttestInitiator;
    friend class LocalAttestResponder;

    TeePlatform &platform_;
    EnclaveImage image_;
    Measurement measurement_;
    Measurement signer_;
    mutable std::unique_ptr<crypto::CtrDrbg> rng_;
};

/** Pads/truncates report data to the fixed 64-byte field. */
Bytes padReportData(ByteView data);

} // namespace salus::tee

#endif // SALUS_TEE_PLATFORM_HPP
