#include "net/retry.hpp"

#include "sim/fault.hpp"

namespace salus::net {

const char *
failureClassName(FailureClass f)
{
    switch (f) {
      case FailureClass::None:
        return "none";
      case FailureClass::Transport:
        return "transport";
      case FailureClass::Timeout:
        return "timeout";
      case FailureClass::Security:
        return "security";
      case FailureClass::Policy:
        return "policy";
      case FailureClass::Persistent:
        return "persistent";
    }
    return "?";
}

bool
isTerminal(FailureClass f)
{
    return f == FailureClass::None || f == FailureClass::Security ||
           f == FailureClass::Policy;
}

// The one backoff shape: exponential from 50 ms, capped at 2 s, with
// +/-25% jitter drawn from a fixed splitmix64 stream.
constexpr sim::Nanos kInitialBackoff = 50 * sim::kMs;
constexpr double kBackoffMultiplier = 2.0;
constexpr sim::Nanos kMaxBackoff = 2 * sim::kSec;
constexpr double kJitterFraction = 0.25;
constexpr uint64_t kJitterSeed = 0x5a105f4b;

sim::Nanos
RetryPolicy::backoffBefore(int attempt)
{
    if (attempt <= 1)
        return 0;
    double base = double(kInitialBackoff);
    for (int i = 2; i < attempt; ++i)
        base *= kBackoffMultiplier;
    if (base > double(kMaxBackoff))
        base = double(kMaxBackoff);
    // Deterministic jitter in [1 - j, 1 + j): same attempt, same wait.
    uint64_t state = kJitterSeed ^ (uint64_t(attempt) * 0x9e3779b9ull);
    double unit = double(sim::splitmix64(state) >> 11) * 0x1.0p-53;
    double factor = 1.0 + kJitterFraction * (2.0 * unit - 1.0);
    return sim::Nanos(base * factor);
}

FailureClass
RetryPolicy::settle(FailureClass last) const
{
    return enabled() && !isTerminal(last) ? FailureClass::Persistent
                                          : last;
}

RetryPolicy
RetryPolicy::none()
{
    return RetryPolicy{};
}

RetryPolicy
RetryPolicy::standard()
{
    RetryPolicy p;
    p.maxAttempts = 4;
    return p;
}

} // namespace salus::net
