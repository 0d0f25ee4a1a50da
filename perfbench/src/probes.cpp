#include "probes.hpp"

#include <algorithm>

#include "bitstream/crc32.hpp"
#include "bitstream/encryptor.hpp"
#include "bitstream/format.hpp"
#include "bitstream/manipulator.hpp"
#include "crypto/aes.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/aes_gcm.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/random.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "net/retry.hpp"
#include "salus/secrets.hpp"
#include "salus/sim_hooks.hpp"

namespace salus::perfbench {

namespace {

/** Exposes the protected quote entry point of a plain enclave. */
class ProbeEnclave : public tee::Enclave
{
  public:
    using tee::Enclave::createQuote;
    using tee::Enclave::Enclave;
};

/** Median host seconds of `reps` calls of `fn`. */
template <typename F>
double
medianOf(int reps, F &&fn)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i) {
        HostTimer t;
        fn();
        s.push_back(t.seconds());
    }
    return median(std::move(s));
}

/** Median host seconds per call over `reps` batches of `calls`. */
template <typename F>
double
medianPerCall(int reps, int calls, F &&fn)
{
    return medianOf(reps, [&] {
               for (int i = 0; i < calls; ++i)
                   fn();
           }) /
           calls;
}

Bytes
randomBytes(Rng &rng, size_t n)
{
    Bytes b(n);
    rng.fill(b.data(), n);
    return b;
}

} // namespace

std::unique_ptr<core::Testbed>
makeTestbed(uint64_t seed, uint64_t index, bool paperScale,
            uint32_t devices, double *installS)
{
    core::TestbedConfig cfg;
    cfg.rngSeed = subSeed(seed, index);
    cfg.deviceCount = devices;
    if (paperScale)
        cfg.deviceModel = fpga::u200ScaledModel();
    auto tb = std::make_unique<core::Testbed>(cfg);
    Rng rng(seed, 0xde5 + index);
    DesignInput design = makeDesign(rng, paperScale);
    HostTimer t;
    tb->installCl(design.accel, design.extra);
    if (installS)
        *installS = t.seconds();
    return tb;
}

void
runLayerProbes(uint64_t seed, uint64_t index, bool paperScale,
               RunResult &out)
{
    Rng rng(seed, 0x9b0be);
    auto put = [&](const char *name, double v) {
        out.metrics[name] = Metric{v, ""};
    };
    std::unique_ptr<core::Testbed> owner;
    std::vector<double> compiles(paperScale ? 3 : 9);
    for (double &s : compiles) {
        owner.reset(); // one paper-scale testbed alive at a time
        owner = makeTestbed(seed, index, paperScale, 1, &s);
    }
    put("bitstream.compile_ms", 1e3 * median(compiles));
    core::Testbed &tb = *owner;
    const Bytes &file = tb.storedBitstream();
    const double mb = double(file.size()) / 1e6;
    // Enough repetitions for a median, bounded for the 32 MiB artifact.
    const int reps = int(std::clamp<size_t>((64u << 20) / file.size(), 3,
                                            64));

    // ---- crypto --------------------------------------------------------
    {
        const size_t big = 32u << 20;
        Bytes buf = randomBytes(rng, big);
        Bytes key = randomBytes(rng, 32);
        Bytes iv = randomBytes(rng, 12);
        crypto::AesGcm gcm(key);
        put("crypto.aes_gcm_mb_per_s",
            double(big) / 1e6 /
                medianOf(3, [&] { (void)gcm.seal(iv, {}, buf); }));
        put("crypto.sha256_mb_per_s",
            double(big) / 1e6 /
                medianOf(3, [&] { (void)crypto::Sha256::digest(buf); }));

        crypto::Aes aes(ByteView(key).subspan(0, 16));
        Bytes ctr0(16, 0);
        auto ctrRate = [&](size_t len, int calls) {
            double per = medianPerCall(5, calls, [&] {
                crypto::AesCtr ctr(aes, ctr0);
                ctr.crypt(buf.data(), len);
                ++ctr0[15];
            });
            return double(len) / 1e6 / per;
        };
        put("crypto.aes_ctr_256b_mb_per_s", ctrRate(256, 20000));
        put("crypto.aes_ctr_1mib_mb_per_s", ctrRate(1u << 20, 20));

        uint8_t shared[32];
        Bytes scalar = randomBytes(rng, 32);
        crypto::CtrDrbg keyRng(rng.next());
        Bytes point = crypto::x25519Generate(keyRng).publicKey;
        put("crypto.x25519_us", 1e6 * medianPerCall(5, 40, [&] {
                                    crypto::x25519(shared, scalar.data(),
                                                   point.data());
                                    scalar[0] ^= shared[0];
                                }));
        Bytes edSeed = randomBytes(rng, 32);
        Bytes pub = crypto::ed25519PublicKey(edSeed);
        Bytes msg = randomBytes(rng, 256);
        Bytes sig = crypto::ed25519Sign(edSeed, msg);
        bool allOk = true;
        put("crypto.ed25519_verify_us", 1e6 * medianPerCall(5, 20, [&] {
                                            allOk &= crypto::ed25519Verify(
                                                pub, msg, sig);
                                        }));
        out.ledger.attempt();
        out.ledger.check(allOk, "ed25519 probe signature rejected");
    }

    // ---- bitstream: the workload's own artifact ------------------------
    bitstream::LogicLocationFile ll =
        bitstream::LogicLocationFile::deserialize(
            tb.metadata().logicLocations);
    bitstream::Bitstream parsed;
    put("bitstream.crc32_mb_per_s",
        mb / medianOf(reps, [&] { (void)bitstream::crc32(file); }));
    put("bitstream.parse_ms", 1e3 * medianOf(reps, [&] {
                                  parsed = bitstream::Bitstream::fromFile(
                                      file);
                              }));
    Bytes reserialized;
    put("bitstream.serialize_ms",
        1e3 * medianOf(reps, [&] { reserialized = parsed.toFile(); }));
    out.ledger.attempt();
    out.ledger.check(reserialized == file,
                     "bitstream parse/serialize round trip differs");
    Bytes patched = file;
    const core::ClLayout &layout = tb.layout();
    put("bitstream.patch_cell_ms", 1e3 * medianOf(reps, [&] {
        bitstream::Manipulator::patchCell(
            patched, ll, layout.keyAttestPath,
            randomBytes(rng, core::kKeyAttestSize));
        bitstream::Manipulator::patchCell(
            patched, ll, layout.keySessionPath,
            randomBytes(rng, core::kKeySessionSize));
        bitstream::Manipulator::patchCell(
            patched, ll, layout.ctrSessionPath,
            randomBytes(rng, core::kCtrSessionSize));
    }));
    out.ledger.attempt();
    out.ledger.check(bitstream::fileCrcValid(patched),
                     "patched bitstream fails its CRC");

    Bytes deviceKey = randomBytes(rng, 32);
    crypto::CtrDrbg drbg(rng.next());
    const fpga::DeviceModelInfo &model = tb.device().model();
    Bytes blob;
    put("bitstream.encrypt_ms", 1e3 * medianOf(reps, [&] {
                                    blob = bitstream::encryptBitstream(
                                        patched, deviceKey,
                                        bitstream::EncryptedHeader{
                                            model.name, 0},
                                        drbg);
                                }));

    // ---- fpga: a bench-owned device with the key fused ----------------
    {
        fpga::FpgaDevice device(model, fpga::DeviceDna{rng.next() >> 7});
        device.fuseKey(deviceKey);
        bool loaded = true;
        put("fpga.load_encrypted_ms", 1e3 * medianOf(reps, [&] {
            loaded &= device.loadEncryptedPartial(blob) ==
                      fpga::LoadStatus::Ok;
        }));
        fpga::FpgaDevice::ScrubReport scrub;
        put("fpga.scrub_ms",
            1e3 * medianOf(reps, [&] { scrub = device.scrub(0); }));
        out.ledger.attempt(2);
        out.ledger.check(loaded, "probe device refused the encrypted CL");
        out.ledger.check(scrub.framesScanned > 0 && scrub.corrected == 0 &&
                             scrub.uncorrectable == 0,
                         "probe scrub found upsets on a fault-free device");
    }

    // ---- tee: quote verification against the manufacturer root -------
    {
        ProbeEnclave enclave(tb.teePlatform(),
                             tee::EnclaveImage{"perfbench-probe", "bench",
                                               1, randomBytes(rng, 64)});
        tee::Quote quote = enclave.createQuote(randomBytes(rng, 32));
        bool verified = true;
        put("tee.quote_verify_us", 1e6 * medianPerCall(5, 10, [&] {
            verified &= tb.mft().verificationService().verify(quote).ok;
        }));
        out.ledger.attempt();
        out.ledger.check(verified, "probe quote failed verification");
    }

    // ---- sm_enclave / user_enclave on a test-scale testbed -------------
    {
        auto small = makeTestbed(seed, 0x9b, false);
        bool ok = true;
        put("sm_enclave.deploy_ms", 1e3 * medianOf(5, [&] {
                                        ok &= small->runDeployment().ok;
                                    }));
        put("user_enclave.rekey_us", 1e6 * medianOf(9, [&] {
                                         ok &= small->userApp()
                                                   .rekeySession();
                                     }));
        ok &= small->userApp().secureWrite(0x00, 42) &&
              small->userApp().secureRead(0x00) == uint64_t(42);
        // Last: a recovered SM serves again only after re-attestation
        // of the user enclave's local session.
        put("sm_enclave.crash_recover_us", 1e6 * medianOf(9, [&] {
            ok &= small->crashAndRecoverSmApp().status ==
                  core::SmEnclaveApp::RecoveryStatus::Recovered;
        }));
        out.ledger.attempt(23);
        out.ledger.check(ok, "test-scale deploy/rekey/recover probe failed");
    }
}

TraceTap::TraceTap(core::Testbed &tb) : tb_(tb), capture_(tb.clock())
{
    tb_.network().setTap([this](const std::string &, const std::string &,
                                const std::string &, ByteView) {
        ++rpcs_;
    });
}

TraceTap::~TraceTap()
{
    tb_.network().setTap(nullptr);
}

uint64_t
TraceTap::retries()
{
    return uint64_t(std::count_if(
        capture_.trace().events().begin(), capture_.trace().events().end(),
        [](const obs::SpanEvent &e) {
            return e.cat == obs::Category::Clock &&
                   e.name == net::kRetryBackoffPhase;
        }));
}

void
TraceTap::checkPhase(const std::string &phase, sim::Nanos clockTotal,
                     Ledger &ledger)
{
    ledger.check(capture_.trace().phaseTotal(phase) == clockTotal,
                 "trace span sum of '" + phase +
                     "' differs from the clock total");
}

void
putBootPhases(const BootPhases &p, RunResult &out)
{
    static const std::map<std::string, const char *> kNames = {
        {core::phases::kUserRa, "virtual.user_ra_ms"},
        {core::phases::kLocalAttest, "virtual.local_attest_ms"},
        {core::phases::kDeviceKeyDist, "virtual.device_key_dist_ms"},
        {core::phases::kBitstreamVerifEnc, "virtual.bitstream_verif_enc_ms"},
        {core::phases::kBitstreamManip, "virtual.bitstream_manip_ms"},
        {core::phases::kClDeployment, "virtual.cl_deployment_ms"},
        {core::phases::kClAuth, "virtual.cl_auth_ms"},
    };
    sim::Nanos sum = 0;
    for (size_t i = 0; i < p.names.size(); ++i) {
        sum += p.nanos[i];
        auto it = kNames.find(p.names[i]);
        if (out.ledger.check(it != kNames.end(),
                             "unmapped Fig. 9 phase " + p.names[i]))
            out.metrics[it->second] = Metric{double(p.nanos[i]) / 1e6, ""};
    }
    out.ledger.check(sum == p.total && p.total > 0,
                     "Fig. 9 phases do not sum to the boot total");
}

} // namespace salus::perfbench
