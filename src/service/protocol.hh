/**
 * @file
 * Wire protocol of the splabd artifact service.
 *
 * Transport: a local Unix-domain stream socket.  Every message is a
 * *frame*: a u32 byte count (host order — both ends are the same
 * machine by construction) followed by that many bytes.  Frames are
 * capped at kMaxFrameBytes; a peer announcing more is malformed and
 * the connection is dropped.
 *
 * A request is one frame:
 *
 *     u32 magic "SPLB" | u16 version | u8 op | op-specific body
 *
 * Op bodies (all integers fixed-width, strings length-prefixed):
 *  - Ping, Stats, Shutdown: empty.
 *  - Evict: u64 targetBytes — evict least-recently-used artifacts
 *           from the daemon's cache until the resident bytes fit the
 *           target (0 = evict everything evictable).  The Ok payload
 *           is three u64s: resident bytes before, resident bytes
 *           after, artifacts after.
 *  - Ensure: string benchmark | u8 kind | u64 configHash |
 *            f64 scale | u32 configLen + configLen bytes (a
 *            serialized ExperimentConfig, see
 *            ExperimentConfig::serialize).  scale is the client's
 *            workloadScale(): SPLAB_SCALE is process environment,
 *            not part of ExperimentConfig, yet it shapes every
 *            artifact — a daemon refuses requests whose scale
 *            differs from its own rather than serve bytes from a
 *            differently-sized workload (the client then falls
 *            back to local resolution).
 *
 * The response is a header frame:
 *
 *     u32 magic | u16 version | u8 status |
 *       Ok:    u64 payloadBytes
 *       Error: string message
 *
 * followed (on Ok, when payloadBytes > 0) by data frames of at most
 * kChunkBytes each until payloadBytes have been streamed.  Ensure
 * payloads are the *serialized artifact bytes* (ready for
 * deserializeArtifact); Stats payloads are u32 count + (string name,
 * u64 value) pairs of the daemon's counter snapshot.
 *
 * Decoding is defensive (bounds-checked, never asserts): a daemon
 * must survive torn or malformed frames from a dying client.  The
 * *content* of a well-formed Ensure config blob is trusted — the
 * socket is a user-local path, not a security boundary.
 */

#ifndef SPLAB_SERVICE_PROTOCOL_HH
#define SPLAB_SERVICE_PROTOCOL_HH

#include <string>
#include <vector>

#include "support/types.hh"

namespace splab
{
namespace service
{

constexpr u32 kMagic = 0x53504c42; // "SPLB"
constexpr u16 kWireVersion = 2;
constexpr u32 kMaxFrameBytes = 256u << 20;
constexpr u32 kChunkBytes = 64u << 10;

enum class Op : u8
{
    Ping = 1,     ///< liveness probe; empty Ok response
    Ensure = 2,   ///< materialize one artifact; payload = its bytes
    Stats = 3,    ///< daemon counter snapshot
    Shutdown = 4, ///< ask the daemon to stop accepting and exit
    Evict = 5,    ///< LRU-evict the cache down to a byte budget
};

enum class Status : u8
{
    Ok = 0,
    Error = 1,
};

/** One decoded request frame. */
struct Request
{
    Op op = Op::Ping;
    std::string benchmark;  ///< Ensure only
    u8 kind = 0;            ///< Ensure only (ArtifactKind value)
    u64 configHash = 0;     ///< Ensure only
    double scale = 1.0;     ///< Ensure only: client workloadScale()
    std::vector<u8> config; ///< Ensure only: serialized config
    u64 evictBytes = 0;     ///< Evict only: target resident bytes
};

/** One decoded response header frame. */
struct ResponseHeader
{
    Status status = Status::Error;
    u64 payloadBytes = 0; ///< data-frame bytes to follow (Ok)
    std::string error;    ///< human-readable cause (Error)
};

/// @name Frame body encode/decode (decode returns false on malformed)
/// @{
std::vector<u8> encodeRequest(const Request &r);
bool decodeRequest(const std::vector<u8> &frame, Request &out);
std::vector<u8> encodeResponseHeader(const ResponseHeader &h);
bool decodeResponseHeader(const std::vector<u8> &frame,
                          ResponseHeader &out);
/// @}

/// @name Framed socket I/O (EINTR-safe; false on error/EOF)
/// @{
bool sendFrame(int fd, const void *data, std::size_t n);
bool recvFrame(int fd, std::vector<u8> &out);
/// @}

} // namespace service
} // namespace splab

#endif // SPLAB_SERVICE_PROTOCOL_HH
