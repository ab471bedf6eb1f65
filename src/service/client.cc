#include "client.hh"

#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/counters.hh"
#include "support/env.hh"
#include "support/logging.hh"

namespace splab
{
namespace service
{

namespace
{

/** Connected socket with close-on-scope-exit; fd() < 0 on failure. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            return; // longer than the AF_UNIX limit: can't exist
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (sock < 0)
            return;
        if (::connect(sock, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(sock);
            sock = -1;
        }
    }

    ~Connection()
    {
        if (sock >= 0)
            ::close(sock);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return sock; }

  private:
    int sock = -1;
};

} // namespace

bool
ServiceClient::roundTrip(const Request &req, ResponseHeader &header,
                         std::vector<u8> *payload) const
{
    static obs::Counter &requests =
        obs::counter("service.client.requests",
                     "requests sent to the splabd daemon");

    Connection conn(sock);
    if (conn.fd() < 0)
        return false;
    requests.add();
    std::vector<u8> frame = encodeRequest(req);
    if (!sendFrame(conn.fd(), frame.data(), frame.size()))
        return false;
    std::vector<u8> headerFrame;
    if (!recvFrame(conn.fd(), headerFrame) ||
        !decodeResponseHeader(headerFrame, header))
        return false;
    if (header.status != Status::Ok || !payload)
        return true;
    payload->clear();
    payload->reserve(header.payloadBytes);
    std::vector<u8> chunk;
    while (payload->size() < header.payloadBytes) {
        if (!recvFrame(conn.fd(), chunk) || chunk.empty() ||
            payload->size() + chunk.size() > header.payloadBytes)
            return false;
        payload->insert(payload->end(), chunk.begin(), chunk.end());
    }
    return true;
}

bool
ServiceClient::ping() const
{
    Request req;
    req.op = Op::Ping;
    ResponseHeader h;
    return roundTrip(req, h, nullptr) && h.status == Status::Ok;
}

std::optional<std::vector<u8>>
ServiceClient::ensureArtifact(const std::string &benchmark, u8 kind,
                              u64 configHash,
                              const std::vector<u8> &config) const
{
    Request req;
    req.op = Op::Ensure;
    req.benchmark = benchmark;
    req.kind = kind;
    req.configHash = configHash;
    req.scale = workloadScale();
    req.config = config;
    ResponseHeader h;
    std::vector<u8> payload;
    if (!roundTrip(req, h, &payload))
        return std::nullopt;
    if (h.status != Status::Ok) {
        SPLAB_WARN("splabd refused ", benchmark, " artifact kind ",
                   static_cast<int>(kind), ": ", h.error);
        return std::nullopt;
    }
    return payload;
}

std::optional<std::map<std::string, u64>>
ServiceClient::stats() const
{
    Request req;
    req.op = Op::Stats;
    ResponseHeader h;
    std::vector<u8> payload;
    if (!roundTrip(req, h, &payload) || h.status != Status::Ok)
        return std::nullopt;
    // Payload: u32 count, then (string name, u64 value) pairs —
    // decoded defensively like any other wire data.
    std::map<std::string, u64> out;
    std::size_t pos = 0;
    auto need = [&](std::size_t n) {
        return payload.size() - pos >= n;
    };
    u32 count = 0;
    if (!need(sizeof(count)))
        return std::nullopt;
    std::memcpy(&count, payload.data() + pos, sizeof(count));
    pos += sizeof(count);
    for (u32 i = 0; i < count; ++i) {
        u32 len = 0;
        if (!need(sizeof(len)))
            return std::nullopt;
        std::memcpy(&len, payload.data() + pos, sizeof(len));
        pos += sizeof(len);
        if (!need(len))
            return std::nullopt;
        std::string name(
            reinterpret_cast<const char *>(payload.data() + pos),
            len);
        pos += len;
        u64 value = 0;
        if (!need(sizeof(value)))
            return std::nullopt;
        std::memcpy(&value, payload.data() + pos, sizeof(value));
        pos += sizeof(value);
        out[name] = value;
    }
    return out;
}

std::optional<ServiceClient::EvictOutcome>
ServiceClient::evict(u64 targetBytes) const
{
    Request req;
    req.op = Op::Evict;
    req.evictBytes = targetBytes;
    ResponseHeader h;
    std::vector<u8> payload;
    if (!roundTrip(req, h, &payload) || h.status != Status::Ok)
        return std::nullopt;
    // Payload: three u64s (before, after, artifacts) — decoded
    // defensively like any other wire data.
    EvictOutcome out;
    u64 fields[3] = {0, 0, 0};
    if (payload.size() != sizeof(fields))
        return std::nullopt;
    std::memcpy(fields, payload.data(), sizeof(fields));
    out.residentBefore = fields[0];
    out.residentAfter = fields[1];
    out.artifacts = fields[2];
    return out;
}

bool
ServiceClient::requestShutdown() const
{
    Request req;
    req.op = Op::Shutdown;
    ResponseHeader h;
    return roundTrip(req, h, nullptr) && h.status == Status::Ok;
}

} // namespace service
} // namespace splab
