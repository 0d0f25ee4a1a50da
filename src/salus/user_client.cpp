#include "salus/user_client.hpp"

#include "common/errors.hpp"
#include "common/serde.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/x25519.hpp"
#include "obs/trace.hpp"
#include "salus/user_enclave.hpp"

namespace salus::core {

UserClient::UserClient(ClientConfig config,
                       const tee::QuoteVerificationService &qvs,
                       net::Network &network, crypto::RandomSource &rng,
                       SimHooks sim)
    : config_(std::move(config)), qvs_(qvs), network_(network),
      rng_(rng), sim_(sim)
{
}

UserClient::Outcome
UserClient::deployAndAttest()
{
    obs::Span span(obs::Category::Attestation, "deploy_and_attest");
    Outcome out;
    // Security rejections and broker policy verdicts are both
    // deterministic: retrying replays the same request into the same
    // refusal, so neither class is ever retried.
    out.attempts = config_.retry.run(sim_.clock, 1, [&](int) {
        out = attemptOnce();
        return net::isTerminal(out.failureClass);
    });
    if (!net::isTerminal(out.failureClass)) {
        if (config_.retry.enabled())
            out.failure += " (after " + std::to_string(out.attempts) +
                           " attempts)";
        out.failureClass = config_.retry.settle(out.failureClass);
    }
    return out;
}

UserClient::Outcome
UserClient::attemptOnce()
{
    obs::Span span(obs::Category::Attestation, "ra_attempt");
    using net::FailureClass;
    Outcome out;
    auto failed = [&out](FailureClass cls, std::string why) {
        out.failure = std::move(why);
        out.failureClass = cls;
        return out;
    };
    PhaseScope phase(sim_, phases::kUserRa);

    // --- ② RA request (single round trip, Fig. 4b) -------------------
    // The nonce is fresh per attempt: a replayed response from an
    // earlier attempt can never satisfy the binding check below.
    RaRequest req;
    req.clientNonce = rng_.bytes(32);
    req.metadata = config_.metadata.serialize();

    net::CallOutcome ra = network_.callOnce(
        config_.selfEndpoint, config_.cloudEndpoint, "raRequest",
        req.serialize(), phases::kUserRa, config_.retry.deadline);
    if (!ra.ok()) {
        // A broker fronting the cloud host may refuse admission
        // (quota/rate/overload): a Policy verdict, never retried.
        const char *what = ra.failure == FailureClass::Timeout
                               ? "RA timed out: "
                           : ra.failure == FailureClass::Policy
                               ? "deployment refused by policy: "
                               : "RA transport failure: ";
        return failed(ra.failure, what + ra.error);
    }
    Bytes respBytes = std::move(ra.response);

    RaResponse resp;
    tee::Quote quote;
    try {
        resp = RaResponse::deserialize(respBytes);
        if (!resp.failure.empty())
            return failed(resp.retryable ? FailureClass::Transport
                                         : FailureClass::Security,
                          "platform reported: " + resp.failure);
        quote = tee::Quote::deserialize(resp.quote);
    } catch (const SalusError &) {
        // A response we cannot even parse was garbled in flight (or
        // forged — in which case retrying is equally useless and
        // equally safe, since nothing was accepted).
        return failed(FailureClass::Transport, "malformed RA response");
    }

    // --- verify the quote via the (WAN) verification service ---------
    if (sim_.active()) {
        sim_.spend(phases::kUserRa,
                   sim_.cost->quoteVerification +
                       sim::Nanos(sim_.cost->dcapCollateralRoundTrips) *
                           sim_.cost->rpc(sim::LinkKind::Wan, 2048,
                                          16384));
    }
    tee::QuoteVerdict verdict = qvs_.verify(quote);
    if (!verdict.ok)
        return failed(FailureClass::Security,
                      "quote verification failed: " + verdict.reason);
    if (verdict.body.mrenclave != config_.expectedUserEnclave)
        return failed(FailureClass::Security,
                      "user enclave measurement mismatch");
    if (!config_.expectedUserSigner.empty() &&
        verdict.body.mrsigner != config_.expectedUserSigner)
        return failed(FailureClass::Security,
                      "user enclave signer (MRSIGNER) mismatch");
    if (verdict.body.isvSvn < config_.minUserIsvSvn)
        return failed(FailureClass::Security,
                      "user enclave security version too old");

    // --- check the cascaded binding -----------------------------------
    // The report data must prove that THIS nonce, THIS metadata, the
    // pinned SM build, successful LA + CL attestation, and THIS wrap
    // key were all bound together inside the enclave.
    Bytes expect = tee::padReportData(cascadedReportData(
        req.clientNonce, config_.metadata.digest(), config_.expectedSm,
        true, true, resp.wrapPubKey));
    if (verdict.body.reportData != expect)
        return failed(FailureClass::Security,
                      "cascaded report binding mismatch");

    // --- upload the data key, wrapped to the attested enclave --------
    out.dataKey = rng_.bytes(32);
    crypto::X25519KeyPair eph = crypto::x25519Generate(rng_);
    Bytes wrapKey;
    try {
        wrapKey = crypto::deriveSessionKey(eph.privateKey,
                                           resp.wrapPubKey,
                                           "salus-datakey-v1", 32);
    } catch (const CryptoError &) {
        // The wrap key is attested (bound in the report data), so a
        // bad one got past verification — a security problem, not a
        // transport one.
        return failed(FailureClass::Security, "bad enclave wrap key");
    }
    crypto::AesGcm gcm(wrapKey);
    secureZero(wrapKey);
    Bytes iv = rng_.bytes(12);
    crypto::GcmSealed sealed = gcm.seal(iv, ByteView(), out.dataKey);

    BinaryWriter w;
    w.writeBytes(eph.publicKey);
    w.writeBytes(iv);
    w.writeBytes(sealed.ciphertext);
    w.writeBytes(sealed.tag);

    // The upload is idempotent (re-installing the same wrapped key is
    // a no-op), so the transport layer may retry it directly.
    net::CallOutcome upload = network_.callWithRetry(
        config_.selfEndpoint, config_.cloudEndpoint, "dataKey", w.data(),
        config_.retry, phases::kUserRa);
    if (!upload.ok())
        return failed(upload.failure,
                      "data key upload failed: " + upload.error);
    if (upload.response.size() != 1 || upload.response[0] != 1) {
        // GCM authentication inside the enclave rejects a garbled
        // blob; the key was NOT accepted, so a fresh outer attempt
        // (with fresh key material) is safe.
        return failed(FailureClass::Transport,
                      "enclave did not accept the data key");
    }

    out.ok = true;
    out.failureClass = FailureClass::None;
    return out;
}

} // namespace salus::core
