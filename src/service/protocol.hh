/**
 * @file
 * Wire protocol of the sweep-serving daemon: length-prefixed frames
 * carrying compact JSON messages over a unix-domain socket.
 *
 * Framing: each frame is a 4-byte big-endian payload length followed
 * by exactly that many bytes of JSON (one message). The length guards
 * against runaway peers via kMaxFrameBytes.
 *
 * Every message is a JSON object with an envelope — "proto" (schema
 * name), "version" {major, minor} and "type" — plus type-specific
 * members. Compatibility follows the run-report rule: receivers
 * ignore unknown members (minor additions are free) and reject
 * messages whose major version is above their own.
 *
 * Message types (client -> server unless noted):
 *   ping                      -> pong
 *   submit {experiment, options, priority?, timeoutSeconds?}
 *                             -> submitted {job}
 *                              | rejected {reason, retryAfterSeconds?}
 *   status {job}              -> jobStatus {job, state, experiment,
 *                                           completedLegs, totalLegs,
 *                                           leasedThreads?, error?}
 *   watch {job}               -> progress {job, completed, total, leg,
 *                                          elapsedSeconds}*
 *                                then a terminal jobStatus
 *   result {job}              -> result {job, report}  (run-report JSON)
 *   cancel {job}              -> jobStatus
 *   metrics                   -> metrics {metrics}  (telemetry snapshot
 *                                JSON, see report/telemetry_json.hh)
 *   shutdown                  -> shuttingDown, then the server drains
 *   error {error}             (server -> client, any failed request)
 *
 * Minor 1 added the metrics request and the elapsedSeconds member of
 * progress events; both are invisible to minor-0 peers. Minor 2 added
 * the leasedThreads member of jobStatus (the running job's cap on
 * in-flight tasks in the daemon's --total-threads pool), equally
 * invisible to older peers. Minor 3 added the optional phase member
 * of progress events — the latest finished leg's newest
 * flight-recorder record (serialized
 * like a report phase record, plus trace/policy/window) when the job
 * runs with a non-zero phase window — which `ghrp-client watch
 * --phases` renders as a rolling readout; older peers ignore it.
 */

#ifndef GHRP_SERVICE_PROTOCOL_HH
#define GHRP_SERVICE_PROTOCOL_HH

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>

#include "report/json.hh"

namespace ghrp::service
{

/** Thrown on malformed frames or incompatible message envelopes. */
struct ProtocolError : std::runtime_error
{
    explicit ProtocolError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Protocol identity; bump major only on incompatible changes. */
inline constexpr char kProtocolName[] = "ghrp-service";
inline constexpr int kProtocolMajor = 1;
inline constexpr int kProtocolMinor = 3;

/** Upper bound on one frame's payload (a full run report fits with
 *  room to spare; anything larger is a corrupt or hostile peer). */
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024 * 1024;

/** Serialize @p message as one frame (header + compact JSON). */
std::string encodeFrame(const report::Json &message);

/**
 * Incremental frame decoder: feed() arbitrary byte chunks as they
 * arrive from the socket, then drain complete messages with next().
 */
class FrameDecoder
{
  public:
    /** Append @p size raw bytes from the stream. */
    void feed(const char *data, std::size_t size);

    /**
     * The next complete message, or nullopt when more bytes are
     * needed. Throws ProtocolError on an oversized frame and JsonError
     * on malformed payload text.
     */
    std::optional<report::Json> next();

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t pending() const { return buffer.size(); }

  private:
    std::string buffer;
};

/** A fresh message object with the standard envelope and @p type. */
report::Json makeMessage(const std::string &type);

/**
 * Validate @p message's envelope and return its type. Throws
 * ProtocolError when the protocol name is wrong or the major version
 * is above kProtocolMajor.
 */
std::string checkMessage(const report::Json &message);

} // namespace ghrp::service

#endif // GHRP_SERVICE_PROTOCOL_HH
