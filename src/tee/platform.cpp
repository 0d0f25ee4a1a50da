#include "tee/platform.hpp"

#include "common/errors.hpp"
#include "crypto/aes_cmac.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace salus::tee {

Bytes
padReportData(ByteView data)
{
    if (data.size() > kReportDataSize)
        throw TeeError("report data exceeds 64 bytes");
    Bytes out(data.begin(), data.end());
    out.resize(kReportDataSize, 0);
    return out;
}

Measurement
EnclaveImage::measure() const
{
    return crypto::Sha256::digest(code);
}

Measurement
EnclaveImage::signerMeasurement() const
{
    return crypto::Sha256::digest(bytesFromString(signer));
}

TeePlatform::TeePlatform(std::string platformId,
                         crypto::RandomSource &rng, uint16_t cpuSvn)
    : platformId_(std::move(platformId)), cpuSvn_(cpuSvn),
      rootSealKey_(rng.bytes(32)), attestKey_(crypto::ed25519Generate(rng))
{
    // The quoting facility has a fixed well-known measurement, like
    // Intel's signed QE.
    qeMeasurement_ =
        crypto::Sha256::digest(bytesFromString("salus-quoting-enclave"));
}

void
TeePlatform::installPckCertificate(PckCertificate cert)
{
    if (cert.attestPublicKey != attestKey_.publicKey)
        throw TeeError("PCK certificate is for a different platform");
    pck_ = std::move(cert);
    provisioned_ = true;
}

uint64_t
TeePlatform::monotonicRead(const std::string &counterId) const
{
    auto it = monotonicCounters_.find(counterId);
    return it == monotonicCounters_.end() ? 0 : it->second;
}

uint64_t
TeePlatform::monotonicIncrement(const std::string &counterId)
{
    return ++monotonicCounters_[counterId];
}

void
TeePlatform::monotonicAdvanceTo(const std::string &counterId,
                                uint64_t value)
{
    uint64_t current = monotonicRead(counterId);
    if (value < current)
        throw TeeError("monotonic counter cannot move backward");
    if (value > current + 1)
        throw TeeError("monotonic counter advance exceeds one step");
    monotonicCounters_[counterId] = value;
}

Bytes
TeePlatform::reportKeyFor(const Measurement &mrenclave) const
{
    Bytes info = concatBytes({bytesFromString("REPORT"), mrenclave});
    Bytes key = crypto::hmacSha256(rootSealKey_, info);
    key.resize(16); // AES-128-CMAC report key, as in SGX
    return key;
}

Bytes
TeePlatform::sealKeyFor(const Measurement &mrenclave) const
{
    Bytes info = concatBytes({bytesFromString("SEAL"), mrenclave});
    return crypto::hmacSha256(rootSealKey_, info);
}

Quote
TeePlatform::generateQuote(const Report &report)
{
    if (!provisioned_)
        throw TeeError("cannot quote: platform not provisioned");

    // The QE locally verifies the report before signing, so only
    // enclaves on this very platform can be quoted.
    Bytes qeKey = reportKeyFor(qeMeasurement_);
    if (!crypto::aesCmacVerify(qeKey, report.body.serialize(),
                               report.mac)) {
        throw TeeError("quote request report failed verification");
    }

    Quote q;
    q.body = report.body;
    q.platformId = platformId_;
    q.qeMeasurement = qeMeasurement_;
    q.qeIsvSvn = 1;
    q.signature = crypto::ed25519Sign(attestKey_.seed, q.signedPortion());
    q.pck = pck_;
    return q;
}

Enclave::Enclave(TeePlatform &platform, EnclaveImage image)
    : platform_(platform), image_(std::move(image)),
      measurement_(image_.measure()),
      signer_(image_.signerMeasurement())
{
    // Per-enclave DRBG; unique per (platform, enclave, instance).
    Bytes seedMaterial = concatBytes(
        {platform_.rootSealKey_, measurement_,
         bytesFromString(
             std::to_string(platform_.enclaveInstances_++))});
    rng_ = std::make_unique<crypto::CtrDrbg>(seedMaterial);
}

Report
Enclave::createReport(const Measurement &target, ByteView reportData) const
{
    Report r;
    r.body.mrenclave = measurement_;
    r.body.mrsigner = signer_;
    r.body.isvSvn = image_.isvSvn;
    r.body.cpuSvn = platform_.cpuSvn();
    r.body.reportData = padReportData(reportData);
    // EREPORT derives the *target's* report key inside hardware; the
    // producing enclave never sees it.
    Bytes key = platform_.reportKeyFor(target);
    r.mac = crypto::aesCmac(key, r.body.serialize());
    secureZero(key);
    return r;
}

bool
Enclave::verifyLocalReport(const Report &report) const
{
    Bytes key = platform_.reportKeyFor(measurement_);
    bool ok = crypto::aesCmacVerify(key, report.body.serialize(),
                                    report.mac);
    secureZero(key);
    return ok;
}

Quote
Enclave::createQuote(ByteView reportData) const
{
    Report r = createReport(platform_.quotingTarget(), reportData);
    return platform_.generateQuote(r);
}

Bytes
Enclave::seal(ByteView plaintext) const
{
    Bytes key = platform_.sealKeyFor(measurement_);
    crypto::AesGcm gcm(key);
    Bytes iv = rng().bytes(12);
    crypto::GcmSealed sealed = gcm.seal(iv, ByteView(), plaintext);
    secureZero(key);
    return concatBytes({iv, sealed.tag, sealed.ciphertext});
}

std::optional<Bytes>
Enclave::unseal(ByteView sealed) const
{
    if (sealed.size() < 12 + 16)
        return std::nullopt;
    Bytes key = platform_.sealKeyFor(measurement_);
    crypto::AesGcm gcm(key);
    secureZero(key);
    return gcm.open(ByteView(sealed.data(), 12), ByteView(),
                    ByteView(sealed.data() + 28, sealed.size() - 28),
                    ByteView(sealed.data() + 12, 16));
}

} // namespace salus::tee
