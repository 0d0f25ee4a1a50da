/**
 * @file
 * The IP developer's toolkit (paper §2.2 development phase, §4.2
 * "heterogeneous application development").
 *
 * In the paper's cloud model the IP developer and the IP user are
 * different entities: the developer integrates the SM logic HDK,
 * compiles the CL, records H and Loc_*, and ships the artifact; the
 * data owner must be able to check that what cloud storage serves is
 * what the developer published. This module adds the missing link: a
 * developer identity that signs the (bitstream digest, logic-location)
 * bundle, so metadata provenance is verifiable offline — without the
 * developer being online during deployment (unlike ShEF's CA role).
 */

#ifndef SALUS_SALUS_DEVELOPER_HPP
#define SALUS_SALUS_DEVELOPER_HPP

#include "bitstream/compiler.hpp"
#include "crypto/ed25519.hpp"
#include "fpga/device.hpp"
#include "salus/cl_builder.hpp"
#include "salus/messages.hpp"

namespace salus::core {

/** A published CL release: bitstream + signed metadata. */
struct ClArtifact
{
    std::string name;      ///< release name ("conv-accel v1.2")
    Bytes bitstream;       ///< raw partial bitstream file
    Bytes metadata;        ///< serialized ClMetadata (contains H)
    Bytes developerPubKey; ///< Ed25519 identity of the publisher
    Bytes signature;       ///< over name + metadata

    /** Bytes covered by the developer signature. */
    Bytes signedPortion() const;
    Bytes serialize() const;
    static ClArtifact deserialize(ByteView data);
};

/**
 * Verifies an artifact end to end: developer signature, and that the
 * carried bitstream matches the signed digest H (so a storage-level
 * bitstream swap is caught before anything is deployed).
 */
bool verifyArtifact(const ClArtifact &artifact,
                    ByteView expectedDeveloperKey);

/** A developer identity + build environment. */
class DeveloperKit
{
  public:
    DeveloperKit(std::string developerName, crypto::RandomSource &rng);

    /** The identity the data owner pins. */
    const Bytes &publicKey() const { return identity_.publicKey; }
    const std::string &name() const { return name_; }

    /**
     * Full development flow: integrate the accelerator with the SM
     * logic, compile for the target partition, record logic
     * locations, and sign the release.
     */
    ClArtifact develop(const std::string &releaseName,
                       netlist::Cell accelCell,
                       const fpga::DeviceModelInfo &deviceModel,
                       uint32_t partitionId = 0);
  private:
    std::string name_;
    crypto::Ed25519KeyPair identity_;
};

} // namespace salus::core

#endif // SALUS_SALUS_DEVELOPER_HPP
