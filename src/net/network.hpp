/**
 * @file
 * In-process RPC fabric standing in for the paper's gRPC deployment
 * (§5.2). Endpoints register method handlers; calls are synchronous
 * and charge virtual time according to the link class between the two
 * endpoints (WAN for the user client, intra-cloud for the manufacturer
 * server, loopback between co-located processes).
 *
 * A tap hook observes every payload in flight — the "network attacker
 * snooping" of the threat model (Fig. 2) — so tests can assert that
 * secrets never cross a link in plaintext.
 */

#ifndef SALUS_NET_NETWORK_HPP
#define SALUS_NET_NETWORK_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/retry.hpp"
#include "sim/clock.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"

namespace salus::net {

/** Handles one RPC method; returns the response payload. */
using Handler = std::function<Bytes(ByteView request)>;

/** Observes (and may record) traffic; cannot modify it. */
using Tap = std::function<void(const std::string &from,
                               const std::string &to,
                               const std::string &method,
                               ByteView payload)>;

/**
 * Mutates traffic in flight — used to model active man-in-the-middle
 * attacks on a link in tests. Returning false drops the message.
 */
using Interposer = std::function<bool(const std::string &from,
                                      const std::string &to,
                                      const std::string &method,
                                      Bytes &payload)>;

/** Synchronous RPC network with latency accounting. */
class Network
{
  public:
    Network(sim::VirtualClock &clock, const sim::CostModel &cost)
        : clock_(clock), cost_(cost)
    {}

    /** Declares an endpoint by name. */
    void addEndpoint(const std::string &name);

    /** Sets the link class between two endpoints (symmetric). */
    void link(const std::string &a, const std::string &b,
              sim::LinkKind kind);

    /** Registers a method handler on an endpoint. */
    void on(const std::string &endpoint, const std::string &method,
            Handler handler);

    /**
     * Performs a synchronous call, advancing the virtual clock and
     * attributing the time to `phase` (or "network" if empty).
     * @param deadline optional per-call virtual-time budget; when
     *        nonzero and exceeded (e.g. by injected delay faults) the
     *        call throws TimeoutError after charging the time.
     * @throws NetError for unknown endpoints/methods, missing links,
     *         or injected drops; TimeoutError past the deadline. Both
     *         carry an ErrorContext naming the link and method.
     */
    Bytes call(const std::string &from, const std::string &to,
               const std::string &method, ByteView request,
               const std::string &phase = "", sim::Nanos deadline = 0);

    /** One call() as a typed outcome: the one place a TimeoutError,
     *  PolicyError or NetError becomes Timeout, Policy or Transport. */
    CallOutcome callOnce(const std::string &from, const std::string &to,
                         const std::string &method, ByteView request,
                         const std::string &phase = "",
                         sim::Nanos deadline = 0);

    /**
     * callOnce() wrapped in a RetryPolicy: transport faults and timeouts
     * are retried with exponential backoff charged to the virtual
     * clock; the typed outcome reports the final failure class and
     * attempt count. Only use for idempotent or fresh-per-attempt
     * requests — security rejections never reach this layer (they are
     * responses, not transport errors).
     */
    CallOutcome callWithRetry(const std::string &from,
                              const std::string &to,
                              const std::string &method, ByteView request,
                              const RetryPolicy &policy,
                              const std::string &phase = "");

    /** Installs a passive observer over all traffic. */
    void setTap(Tap tap) { tap_ = std::move(tap); }

    /** Installs an active man-in-the-middle on all traffic. */
    void setInterposer(Interposer ip) { interposer_ = std::move(ip); }

    /** Wires the deterministic fault fabric (nullptr = fault-free).
     *  Injected drops surface as NetError exactly like interposer
     *  drops, so honest and malicious paths share one mechanism. */
    void setFaultInjector(sim::FaultInjector *injector)
    {
        fault_ = injector;
    }

    sim::VirtualClock &clock() { return clock_; }
    const sim::CostModel &cost() const { return cost_; }

  private:
    /** A message held back by a reorder fault, delivered stale. */
    struct HeldMessage
    {
        std::string from, to, method;
        Bytes payload;
    };

    sim::LinkKind linkKind(const std::string &a,
                           const std::string &b) const;
    void deliverHeld();

    sim::VirtualClock &clock_;
    const sim::CostModel &cost_;
    std::map<std::string, std::map<std::string, Handler>> handlers_;
    std::map<std::pair<std::string, std::string>, sim::LinkKind> links_;
    Tap tap_;
    Interposer interposer_;
    sim::FaultInjector *fault_ = nullptr;
    std::vector<HeldMessage> held_;
    bool delivering_ = false;
};

} // namespace salus::net

#endif // SALUS_NET_NETWORK_HPP
