/**
 * @file
 * Bounded retry with exponential backoff for the RPC fabric and the
 * protocol drivers built on it. Backoff and jitter are charged to the
 * VIRTUAL clock, and jitter comes from a seeded splitmix64 stream, so
 * a retried run is exactly as reproducible as a fault-free one.
 *
 * Typed outcomes keep the crucial distinction the threat model
 * demands: transport faults (drops, timeouts) are retryable, security
 * rejections (bad MAC, failed attestation, refused key release) are
 * terminal and must never be silently retried into acceptance.
 */

#ifndef SALUS_NET_RETRY_HPP
#define SALUS_NET_RETRY_HPP

#include <algorithm>
#include <string>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "sim/clock.hpp"

namespace salus::net {

/** Why an operation ultimately failed. */
enum class FailureClass : uint8_t {
    None = 0,  ///< succeeded
    Transport, ///< message lost/garbled in flight — retryable
    Timeout,   ///< per-call deadline exceeded — retryable, new nonce
    Security,  ///< verification/policy rejection — NEVER retried
    /** A broker policy rejection (QuotaExceeded / RateLimited /
     *  Overloaded): deterministic, so NEVER retried — only freed
     *  capacity or virtual time passing can change the verdict. */
    Policy,
    /** A bounded retry schedule was exhausted by transport-class
     *  failures: the fault is no longer plausibly transient. The
     *  caller must NOT keep hammering the same device — a fleet
     *  supervisor decides quarantine/failover (see salus::core::
     *  Supervisor). Reported only when retries were enabled. */
    Persistent,
};

const char *failureClassName(FailureClass f);

/** True when no retry can change the result: success, a security
 *  rejection or a policy verdict. */
bool isTerminal(FailureClass f);

/** Phase label retry backoff is charged to on the virtual clock. */
inline const char *const kRetryBackoffPhase = "Retry Backoff";

/** Retry schedule: bounded attempts and a per-call deadline. The
 *  backoff shape is fixed in retry.cpp. */
struct RetryPolicy
{
    /** Total attempts including the first; 1 disables retries. */
    int maxAttempts = 1;
    /** Per-call virtual-time deadline; 0 disables the check. */
    sim::Nanos deadline = 0;

    bool enabled() const { return maxAttempts > 1; }

    /** Backoff charged before attempt N (N >= 2); deterministic. */
    static sim::Nanos backoffBefore(int attempt);

    /**
     * The one retry loop: runs attempt(n) for n = 1, 2, ... until it
     * returns true ("done": success, or a failure no retry can change)
     * or max(minAttempts, maxAttempts) attempts have run, charging
     * the backoff to kRetryBackoffPhase on `clock` (if non-null)
     * before each n > 1. @return the number of attempts run.
     */
    template <typename Attempt>
    int
    run(sim::VirtualClock *clock, int minAttempts, Attempt &&attempt) const
    {
        int attempts = std::max(minAttempts, maxAttempts);
        for (int n = 1;; ++n) {
            if (n > 1 && clock)
                clock->spend(kRetryBackoffPhase, backoffBefore(n));
            if (attempt(n) || n >= attempts)
                return n;
        }
    }

    /** The class a call reports after its last attempt failed with
     *  `last`: Persistent if that spent an enabled schedule. */
    FailureClass settle(FailureClass last) const;

    /** No retries, no deadline — the seed repo's behaviour. */
    static RetryPolicy none();

    /** Default self-healing schedule: 4 attempts, 50 ms..2 s. */
    static RetryPolicy standard();
};

/** Typed result of a (possibly retried) call. */
struct CallOutcome
{
    FailureClass failure = FailureClass::Transport;
    Bytes response;
    std::string error;
    int attempts = 0;
    /** Structured context of the last failure (empty on success). */
    ErrorContext context;

    bool ok() const { return failure == FailureClass::None; }
};

} // namespace salus::net

#endif // SALUS_NET_RETRY_HPP
