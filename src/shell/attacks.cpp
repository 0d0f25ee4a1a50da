#include "shell/attacks.hpp"

#include "common/errors.hpp"
#include "common/log.hpp"

namespace salus::shell {

namespace {

// The SM logic's public register map (salus/sm_logic.hpp) — the CSP
// adversary ships the shell, so of course it knows the ABI.
constexpr uint32_t kSmCmd = 0x00;
constexpr uint32_t kSmStatus = 0x08;
constexpr uint32_t kSmIn0 = 0x10;
constexpr uint32_t kSmOut0 = 0x30;
constexpr uint32_t kSmOut1 = 0x38;
constexpr uint32_t kSmOut2 = 0x40;
constexpr uint64_t kCmdHeartbeat = 4;
constexpr uint64_t kStatusOk = 1;

/** Bits flipped in the tampered bitstream byte. */
constexpr uint8_t kTamperMask = 0x01;

} // namespace

MaliciousShell::MaliciousShell(fpga::FpgaDevice &device,
                               sim::VirtualClock &clock,
                               const sim::CostModel &cost,
                               AttackPlan plan, uint32_t partitionId)
    : Shell(device, clock, cost, partitionId), plan_(std::move(plan))
{
}

fpga::LoadStatus
MaliciousShell::deployBitstream(ByteView blob)
{
    capturedBitstream_.assign(blob.begin(), blob.end());

    if (plan_.substituteBitstream) {
        logf(LogLevel::Info, "attack", "substituting CL bitstream");
        return Shell::deployBitstream(*plan_.substituteBitstream);
    }
    if (plan_.tamperBitstream) {
        Bytes tampered(blob.begin(), blob.end());
        if (!tampered.empty()) {
            size_t off = plan_.tamperOffset % tampered.size();
            tampered[off] ^= kTamperMask;
        }
        logf(LogLevel::Info, "attack", "tampering CL bitstream at ",
             plan_.tamperOffset);
        return Shell::deployBitstream(tampered);
    }
    return Shell::deployBitstream(blob);
}

uint64_t
MaliciousShell::registerRead(pcie::Window window, uint32_t addr)
{
    if (forging_ && window == pcie::Window::SmSecure) {
        // Fabricate an "alive" heartbeat without touching the fabric.
        // The response MAC is the best the shell can do without
        // Key_attest: a keyless hash of the nonce.
        uint64_t fake = 0;
        switch (addr) {
          case kSmStatus:
            fake = kStatusOk;
            break;
          case kSmOut0:
            fake = forgeNonce_ + 1;
            break;
          case kSmOut1:
            fake = ++forgeCount_;
            break;
          case kSmOut2:
            fake = (forgeNonce_ + forgeCount_) *
                   0x9e3779b97f4a7c15ull; // no Key_attest, no SipHash
            break;
          default:
            break;
        }
        snoopLog_.push_back({false, window, addr, fake});
        return fake;
    }
    uint64_t value = Shell::registerRead(window, addr) ^ dataMask(window);
    snoopLog_.push_back({false, window, addr, value});
    return value;
}

void
MaliciousShell::registerWrite(pcie::Window window, uint32_t addr,
                              uint64_t data)
{
    if (plan_.forgeHeartbeats && window == pcie::Window::SmSecure) {
        if (addr == kSmIn0)
            forgeNonce_ = data;
        if (addr == kSmCmd) {
            if (data == kCmdHeartbeat) {
                // Swallow the probe; the fabric never sees it.
                forging_ = true;
                snoopLog_.push_back({true, window, addr, data});
                logf(LogLevel::Info, "attack",
                     "forging heartbeat response");
                return;
            }
            forging_ = false;
        }
    }
    uint64_t effective = data ^ dataMask(window);
    snoopLog_.push_back({true, window, addr, effective});
    Shell::registerWrite(window, addr, effective);
}

void
MaliciousShell::registerBurstWrite(pcie::Window window, uint32_t addr,
                                   const uint64_t *words, size_t count)
{
    // The shell sees every beat of a burst exactly like it sees every
    // single-word write: snoop it, optionally flip bits in flight.
    uint64_t mask = dataMask(window);
    std::vector<uint64_t> effective(words, words + count);
    for (auto &w : effective) {
        w ^= mask;
        snoopLog_.push_back({true, window, addr, w});
    }
    Shell::registerBurstWrite(window, addr, effective.data(), count);
}

void
MaliciousShell::registerBurstRead(pcie::Window window, uint32_t addr,
                                  uint64_t *words, size_t count)
{
    Shell::registerBurstRead(window, addr, words, count);
    uint64_t mask = dataMask(window);
    for (size_t i = 0; i < count; ++i) {
        words[i] ^= mask;
        snoopLog_.push_back({false, window, addr, words[i]});
    }
}

void
MaliciousShell::dmaWrite(uint64_t addr, ByteView data)
{
    if (plan_.tamperDma && !data.empty()) {
        Bytes tampered(data.begin(), data.end());
        tampered[0] ^= 0xff;
        Shell::dmaWrite(addr, tampered);
        return;
    }
    Shell::dmaWrite(addr, data);
}

Bytes
MaliciousShell::dmaRead(uint64_t addr, size_t len)
{
    Bytes out = Shell::dmaRead(addr, len);
    if (plan_.tamperDma && !out.empty())
        out[0] ^= 0xff;
    return out;
}

size_t
MaliciousShell::replayRecordedSmWrites()
{
    // Copy first: the replayed writes themselves get snooped.
    std::vector<pcie::RegisterTxn> recorded = snoopLog_;
    size_t replayed = 0;
    for (const auto &txn : recorded) {
        if (!txn.isWrite || txn.window != pcie::Window::SmSecure)
            continue;
        Shell::registerWrite(txn.window, txn.addr, txn.data);
        ++replayed;
    }
    logf(LogLevel::Info, "attack", "replayed ", replayed,
         " SM-window writes");
    return replayed;
}

std::optional<Bytes>
MaliciousShell::tryConfigScan()
{
    try {
        return device_.readback(partitionId_);
    } catch (const DeviceError &) {
        logf(LogLevel::Info, "attack",
             "config scan blocked: readback disabled");
        return std::nullopt;
    }
}

} // namespace salus::shell
