#include "salus/reg_channel.hpp"

#include <cstring>

#include "crypto/aes_ctr.hpp"
#include "crypto/ct.hpp"
#include "crypto/hmac.hpp"
#include "crypto/siphash.hpp"

namespace salus::core::regchan {

namespace {

Bytes
nonceDnaMessage(uint64_t nonce, uint64_t dna, uint8_t direction)
{
    // The direction byte separates request and response domains, so
    // MAC_rsp(N) can never be replayed as MAC_req(N + 1) (hardening
    // the paper's "incremental operation" per its own §4.3 remark).
    Bytes msg(17);
    storeLe64(msg.data(), nonce);
    storeLe64(msg.data() + 8, dna);
    msg[16] = direction;
    return msg;
}

uint64_t
truncatedHmac(ByteView macKey, uint64_t ctr, uint64_t ct0, uint64_t ct1,
              const char *direction)
{
    Bytes msg(24 + std::strlen(direction));
    storeLe64(msg.data(), ctr);
    storeLe64(msg.data() + 8, ct0);
    storeLe64(msg.data() + 16, ct1);
    std::memcpy(msg.data() + 24, direction, std::strlen(direction));
    Bytes tag = crypto::hmacSha256(macKey, msg);
    return loadLe64(tag.data());
}

} // namespace

uint64_t
attestRequestMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce, dna, 'Q'));
}

uint64_t
attestResponseMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce + 1, dna, 'P'));
}

uint64_t
heartbeatRequestMac(ByteView keyAttest, uint64_t nonce, uint64_t dna)
{
    return crypto::sipHash24(keyAttest,
                             nonceDnaMessage(nonce, dna, 'H'));
}

uint64_t
heartbeatResponseMac(ByteView keyAttest, uint64_t nonce, uint64_t dna,
                     uint64_t count)
{
    Bytes msg = nonceDnaMessage(nonce + 1, dna, 'h');
    msg.resize(25);
    storeLe64(msg.data() + 17, count);
    return crypto::sipHash24(keyAttest, msg);
}

uint64_t
migrationTicketMac(ByteView keyAttest, uint32_t fromDevice,
                   uint32_t toDevice, uint64_t fromDna, uint64_t toDna,
                   uint64_t nonce, ByteView sourceFingerprint)
{
    Bytes msg(33 + sourceFingerprint.size());
    storeLe32(msg.data(), fromDevice);
    storeLe32(msg.data() + 4, toDevice);
    storeLe64(msg.data() + 8, fromDna);
    storeLe64(msg.data() + 16, toDna);
    storeLe64(msg.data() + 24, nonce);
    msg[32] = 'M';
    std::memcpy(msg.data() + 33, sourceFingerprint.data(),
                sourceFingerprint.size());
    return crypto::sipHash24(keyAttest, msg);
}

SealedRegRequest
sealRequest(const crypto::Aes &aes, ByteView macKey, uint64_t ctr,
            const RegOp &op)
{
    uint8_t plain[16] = {};
    plain[0] = op.isWrite ? 1 : 0;
    storeLe32(plain + 1, op.addr);
    storeLe64(plain + 5, op.data);

    crypto::AesCtr cipher(aes, crypto::labeledCounterBlock("SREGCHAN", ctr));
    cipher.crypt(plain, 16);

    SealedRegRequest req;
    req.ctr = ctr;
    req.ct0 = loadLe64(plain);
    req.ct1 = loadLe64(plain + 8);
    req.mac = truncatedHmac(macKey, ctr, req.ct0, req.ct1, "req");
    return req;
}

std::optional<RegOp>
openRequest(const crypto::Aes &aes, ByteView macKey,
            const SealedRegRequest &req)
{
    uint64_t expect =
        truncatedHmac(macKey, req.ctr, req.ct0, req.ct1, "req");
    if (!crypto::macEqual(expect, req.mac))
        return std::nullopt;

    uint8_t buf[16];
    storeLe64(buf, req.ct0);
    storeLe64(buf + 8, req.ct1);
    crypto::AesCtr cipher(aes,
                          crypto::labeledCounterBlock("SREGCHAN", req.ctr));
    cipher.crypt(buf, 16);

    RegOp op;
    op.isWrite = buf[0] != 0;
    op.addr = loadLe32(buf + 1);
    op.data = loadLe64(buf + 5);
    return op;
}

SealedRegResponse
sealResponse(const crypto::Aes &aes, ByteView macKey, uint64_t ctr,
             uint8_t status, uint64_t data)
{
    uint8_t plain[16] = {};
    plain[0] = status;
    storeLe64(plain + 1, data);

    crypto::AesCtr cipher(aes, crypto::labeledCounterBlock("SRSPCHAN", ctr));
    cipher.crypt(plain, 16);

    SealedRegResponse rsp;
    rsp.ct0 = loadLe64(plain);
    rsp.ct1 = loadLe64(plain + 8);
    rsp.mac = truncatedHmac(macKey, ctr, rsp.ct0, rsp.ct1, "rsp");
    return rsp;
}

std::optional<std::pair<uint8_t, uint64_t>>
openResponse(const crypto::Aes &aes, ByteView macKey, uint64_t ctr,
             const SealedRegResponse &rsp)
{
    uint64_t expect =
        truncatedHmac(macKey, ctr, rsp.ct0, rsp.ct1, "rsp");
    if (!crypto::macEqual(expect, rsp.mac))
        return std::nullopt;

    uint8_t buf[16];
    storeLe64(buf, rsp.ct0);
    storeLe64(buf + 8, rsp.ct1);
    crypto::AesCtr cipher(aes, crypto::labeledCounterBlock("SRSPCHAN", ctr));
    cipher.crypt(buf, 16);

    return std::make_pair(buf[0], loadLe64(buf + 1));
}

// ---- Batched register bursts -----------------------------------------

void
cryptBatchBlock(const crypto::Aes &aes, bool response, uint64_t ctr,
                uint8_t *block)
{
    // Each op owns the one-block keystream at ("SREGBRST"/"SRSPBRST",
    // ctr). The labels are disjoint from the single-op channel's
    // ("SREGCHAN"/"SRSPCHAN"), so batch and single traffic can share
    // a session counter space without keystream reuse.
    const char *label = response ? "SRSPBRST" : "SREGBRST";
    crypto::AesCtr cipher(aes, crypto::labeledCounterBlock(label, ctr));
    cipher.crypt(block, kRegBatchBlock);
}

void
encodeBatchOp(const RegOp &op, uint8_t *block)
{
    std::memset(block, 0, kRegBatchBlock);
    block[0] = op.isWrite ? 1 : 0;
    storeLe32(block + 1, op.addr);
    storeLe64(block + 5, op.data);
}

RegOp
decodeBatchOp(const uint8_t *block)
{
    RegOp op;
    op.isWrite = block[0] != 0;
    op.addr = loadLe32(block + 1);
    op.data = loadLe64(block + 5);
    return op;
}

void
encodeBatchResult(uint8_t status, uint64_t data, uint8_t *block)
{
    std::memset(block, 0, kRegBatchBlock);
    block[0] = status;
    storeLe64(block + 1, data);
}

BatchResult
decodeBatchResult(const uint8_t *block)
{
    BatchResult res;
    res.status = block[0];
    res.data = loadLe64(block + 1);
    return res;
}

uint64_t
batchMac(ByteView macKey, uint32_t sessionId, uint64_t ctrBase,
         ByteView payload, bool response)
{
    const char *direction = response ? "brsp" : "breq";
    Bytes msg(20 + payload.size());
    storeLe32(msg.data(), sessionId);
    storeLe64(msg.data() + 4, ctrBase);
    storeLe32(msg.data() + 12, uint32_t(payload.size() / kRegBatchBlock));
    std::memcpy(msg.data() + 16, direction, 4);
    std::copy(payload.begin(), payload.end(), msg.begin() + 20);
    Bytes tag = crypto::hmacSha256(macKey, msg);
    return loadLe64(tag.data());
}

namespace {

/** Structural sanity shared by request and response opening: size,
 *  alignment and counter-stride wrap checks that must pass before
 *  any crypto is attempted. */
bool
batchShapeOk(size_t payloadSize, uint64_t ctrBase)
{
    if (payloadSize == 0 || payloadSize % kRegBatchBlock != 0)
        return false;
    size_t count = payloadSize / kRegBatchBlock;
    if (count > kMaxBatchOps)
        return false;
    // The stride [ctrBase, ctrBase + count - 1] must not wrap: a
    // wrapped stride would alias counter 0's keystream.
    return ctrBase <= UINT64_MAX - (count - 1);
}

} // namespace

SealedRegBatch
sealBatch(const crypto::Aes &aes, ByteView macKey, uint32_t sessionId,
          uint64_t ctrBase, const std::vector<RegOp> &ops)
{
    SealedRegBatch batch;
    batch.sessionId = sessionId;
    batch.ctrBase = ctrBase;
    batch.payload.resize(ops.size() * kRegBatchBlock);
    for (size_t i = 0; i < ops.size(); ++i) {
        uint8_t *block = batch.payload.data() + i * kRegBatchBlock;
        encodeBatchOp(ops[i], block);
        cryptBatchBlock(aes, false, ctrBase + i, block);
    }
    batch.mac =
        batchMac(macKey, sessionId, ctrBase, batch.payload, false);
    return batch;
}

std::optional<std::vector<RegOp>>
openBatch(const crypto::Aes &aes, ByteView macKey,
          const SealedRegBatch &batch)
{
    if (!batchShapeOk(batch.payload.size(), batch.ctrBase))
        return std::nullopt;
    uint64_t expect = batchMac(macKey, batch.sessionId, batch.ctrBase,
                               batch.payload, false);
    if (!crypto::macEqual(expect, batch.mac))
        return std::nullopt;

    std::vector<RegOp> ops(batch.count());
    for (size_t i = 0; i < ops.size(); ++i) {
        uint8_t block[kRegBatchBlock];
        std::memcpy(block, batch.payload.data() + i * kRegBatchBlock,
                    kRegBatchBlock);
        cryptBatchBlock(aes, false, batch.ctrBase + i, block);
        ops[i] = decodeBatchOp(block);
    }
    return ops;
}

SealedBatchResponse
sealBatchResponse(const crypto::Aes &aes, ByteView macKey,
                  uint32_t sessionId, uint64_t ctrBase,
                  const std::vector<BatchResult> &results)
{
    SealedBatchResponse rsp;
    rsp.payload.resize(results.size() * kRegBatchBlock);
    for (size_t i = 0; i < results.size(); ++i) {
        uint8_t *block = rsp.payload.data() + i * kRegBatchBlock;
        encodeBatchResult(results[i].status, results[i].data, block);
        cryptBatchBlock(aes, true, ctrBase + i, block);
    }
    rsp.mac = batchMac(macKey, sessionId, ctrBase, rsp.payload, true);
    return rsp;
}

std::optional<std::vector<BatchResult>>
openBatchResponse(const crypto::Aes &aes, ByteView macKey,
                  uint32_t sessionId, uint64_t ctrBase,
                  size_t expectCount, const SealedBatchResponse &rsp)
{
    if (rsp.count() != expectCount ||
        !batchShapeOk(rsp.payload.size(), ctrBase))
        return std::nullopt;
    uint64_t expect =
        batchMac(macKey, sessionId, ctrBase, rsp.payload, true);
    if (!crypto::macEqual(expect, rsp.mac))
        return std::nullopt;

    std::vector<BatchResult> results(rsp.count());
    for (size_t i = 0; i < results.size(); ++i) {
        uint8_t block[kRegBatchBlock];
        std::memcpy(block, rsp.payload.data() + i * kRegBatchBlock,
                    kRegBatchBlock);
        cryptBatchBlock(aes, true, ctrBase + i, block);
        results[i] = decodeBatchResult(block);
    }
    return results;
}

// ---- Multi-session key fan-out ---------------------------------------

uint64_t
sessionOpenMac(ByteView baseMacKey, uint32_t slot, uint64_t nonce)
{
    uint8_t msg[21];
    storeLe32(msg, slot);
    storeLe64(msg + 4, nonce);
    std::memcpy(msg + 12, "sess-open", 9);
    Bytes tag =
        crypto::hmacSha256(baseMacKey, ByteView(msg, sizeof(msg)));
    return loadLe64(tag.data());
}

Bytes
deriveSlotSessionKeys(ByteView baseKeySession, uint32_t slot,
                      uint64_t nonce)
{
    uint8_t salt[12];
    storeLe32(salt, slot);
    storeLe64(salt + 4, nonce);
    return crypto::hkdf(ByteView(salt, sizeof(salt)), baseKeySession,
                        bytesFromString("salus-msess-v1"), 48);
}

uint64_t
rekeyMac(ByteView macKey, uint64_t ctr, uint64_t nonce)
{
    uint8_t msg[21];
    storeLe64(msg, ctr);
    storeLe64(msg + 8, nonce);
    std::memcpy(msg + 16, "rekey", 5);
    Bytes tag = crypto::hmacSha256(macKey, ByteView(msg, sizeof(msg)));
    return loadLe64(tag.data());
}

std::pair<Bytes, Bytes>
deriveRekeyedKeys(ByteView oldMacKey, uint64_t nonce)
{
    uint8_t salt[8];
    storeLe64(salt, nonce);
    Bytes material = crypto::hkdf(ByteView(salt, 8), oldMacKey,
                                  bytesFromString("salus-rekey-v1"), 48);
    Bytes aes(material.begin(), material.begin() + 16);
    Bytes mac(material.begin() + 16, material.end());
    secureZero(material);
    return {std::move(aes), std::move(mac)};
}

} // namespace salus::core::regchan
