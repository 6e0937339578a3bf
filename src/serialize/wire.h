// Wire protocol between DedupRuntime and the encrypted ResultStore.
//
// The paper's prototype exchanges GET_REQUEST/GET_RESPONSE and
// PUT_REQUEST/PUT_RESPONSE messages through OCALLs and a socket (§IV-B);
// SYNC messages implement the master-store replication discussed in the
// §IV-B Remark. Every message is encoded with the canonical codec and
// carried over a Channel (src/net), optionally inside a secure channel.
//
// Key sizes: the result key k is an AES-128 key (16 bytes). The RCE wrap
// mask is the first 16 bytes of h = SHA-256(func, m, r), so |[k]| = 16 for a
// per-call entry; chunk and manifest entries carry the 32-byte checked wrap
// (mle/rce.h). The store treats both as opaque bytes.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "serialize/codec.h"

namespace speed::serialize {

/// Computation tag t = Hash(func, m); 32 bytes of SHA-256.
using Tag = std::array<std::uint8_t, 32>;

/// Application identity: the requesting enclave's measurement. Used by the
/// store for quota accounting (DoS mitigation, §III-D), not for secrecy.
using AppId = std::array<std::uint8_t, 32>;

enum class MessageType : std::uint8_t {
  kGetRequest = 1,
  kGetResponse = 2,
  kPutRequest = 3,
  kPutResponse = 4,
  kSyncRequest = 5,
  kSyncResponse = 6,
  // Cluster plane (docs/PROTOCOL.md §8): health probes, anti-entropy bulk
  // sync with resumable cursors, hot-entry push, and membership broadcast.
  kHeartbeatRequest = 7,
  kHeartbeatResponse = 8,
  kPullRequest = 9,
  kPullResponse = 10,
  kPushRequest = 11,
  kPushResponse = 12,
  kMembershipUpdate = 13,
  kMembershipAck = 14,
  // Batched framing (docs/PROTOCOL.md §9): many GET/PUT sub-requests in one
  // frame, one enclave crossing per batch. Negotiated in the handshake
  // (net/handshake.h); v1 peers never see these types.
  kBatchRequest = 15,
  kBatchResponse = 16,
  kErrorResponse = 17,
  // Header-only GET (docs/PROTOCOL.md §10): the reply is a GetResponse with
  // r and [k] but no result ciphertext. Plain message or batch op.
  kProbeRequest = 18,
};

/// The stored triple (r, [k], [res]) of Algorithm 1.
struct EntryPayload {
  Bytes challenge;    ///< r — the RCE challenge message
  Bytes wrapped_key;  ///< [k]: k XOR h[0..16), or the checked wrap
  Bytes result_ct;    ///< [res] — AES-GCM envelope (iv ‖ ct ‖ tag)

  friend bool operator==(const EntryPayload&, const EntryPayload&) = default;
};

struct GetRequest {
  Tag tag{};
  AppId requester{};
};

struct GetResponse {
  bool found = false;
  EntryPayload entry;  ///< valid only when found; no result_ct for a probe
};

/// Header-only GET: the store finds the entry and refreshes its recency as
/// for a GET hit, then answers a GetResponse carrying `found`, r and [k]
/// with an empty result_ct. It reads no blob and checks no blob MAC.
struct ProbeRequest {
  Tag tag{};
  AppId requester{};
};

struct PutRequest {
  Tag tag{};
  AppId requester{};
  EntryPayload entry;
};

enum class PutStatus : std::uint8_t {
  kStored = 0,
  kAlreadyPresent = 1,  ///< concurrent initial computations; first write wins
  kQuotaExceeded = 2,   ///< rate-limiting defence of §III-D
  kRejected = 3,
};

struct PutResponse {
  PutStatus status = PutStatus::kRejected;
};

/// Master-store synchronization (§IV-B Remark): a replica asks the master
/// for its hottest entries; the master replies with (tag, entry, hits).
struct SyncRequest {
  std::uint32_t max_entries = 0;
};

struct SyncEntry {
  Tag tag{};
  EntryPayload entry;
  std::uint64_t hits = 0;
};

struct SyncResponse {
  std::vector<SyncEntry> entries;
};

/// Liveness probe. Cheap enough to ride an application's secure channel (the
/// client-side failover layer probes suspect nodes with it) and informative
/// enough for the cluster fabric: the reply carries the node's size, its
/// degraded flag, and the membership epoch it believes in.
struct HeartbeatRequest {
  std::uint64_t nonce = 0;
};

struct HeartbeatResponse {
  std::uint64_t nonce = 0;          ///< echo of the request nonce
  std::uint64_t entries = 0;        ///< dictionary entries held
  std::uint64_t cluster_epoch = 0;  ///< membership view the node has applied
  bool degraded = false;            ///< backend write failure; PUTs rejected
};

/// Bulk anti-entropy page (infra plane): entries in ascending tag order,
/// resumable through the cursor. A rejoining node pulls every entry the ring
/// assigns it, page by page, surviving interruptions mid-sync.
struct PullRequest {
  Tag after{};                    ///< resume cursor (strictly-greater tags)
  std::uint32_t max_entries = 0;  ///< page size
  bool resume = false;            ///< false = first page, `after` ignored
};

struct PullResponse {
  std::vector<SyncEntry> entries;  ///< ascending tag order
  Tag next{};                      ///< pass back as `after` to continue
  bool done = false;               ///< no tags remain beyond `next`
};

/// Popularity-driven hot-entry push (infra plane): a node offers its hottest
/// entries to the peers the ring makes responsible for them. Quota-exempt on
/// the receiver, like every master-sync merge.
struct PushRequest {
  std::vector<SyncEntry> entries;
};

struct PushResponse {
  std::uint32_t accepted = 0;  ///< entries newly inserted
};

enum class MemberStatus : std::uint8_t {
  kDown = 0,
  kUp = 1,
};

struct MemberInfo {
  std::string name;  ///< endpoint label; feeds the rendezvous ring
  MemberStatus status = MemberStatus::kUp;

  friend bool operator==(const MemberInfo&, const MemberInfo&) = default;
};

/// Membership broadcast (infra plane): the cluster view at `epoch`. Nodes
/// apply monotonically — an update with a stale epoch is acknowledged but
/// ignored, so reordered broadcasts cannot roll the view back.
struct MembershipUpdate {
  std::uint64_t epoch = 0;
  std::vector<MemberInfo> members;
};

struct MembershipAck {
  std::uint64_t epoch = 0;  ///< epoch in effect at the node after the update
  bool applied = false;     ///< false = the update was stale
};

/// Machine-readable failure for one batch entry (or a whole frame when the
/// server refuses to process it, e.g. an oversized batch). `detail` is a
/// short operator-facing string — never tags, keys, or payload bytes.
enum class ErrorCode : std::uint8_t {
  kBadRequest = 0,     ///< malformed or non-routable sub-request
  kFrameTooLarge = 1,  ///< frame exceeded the server's max_frame_bytes
  kBatchTooLarge = 2,  ///< batch exceeded the server's max_batch_entries
  kUnavailable = 3,    ///< no store node could serve this entry
};

struct ErrorResponse {
  ErrorCode code = ErrorCode::kBadRequest;
  std::string detail;

  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

/// One sub-request of a batch. Only the application-plane data operations
/// are batchable — the type system keeps infra messages out by construction.
using BatchOp = std::variant<GetRequest, PutRequest, ProbeRequest>;

/// Per-entry reply, index-aligned with the request's ops. A failed entry
/// carries an ErrorResponse without disturbing its neighbors.
using BatchReply = std::variant<GetResponse, PutResponse, ErrorResponse>;

/// Envelope carrying many GET/PUT/probe sub-requests; the store executes
/// them in order inside a single enclave crossing and replies
/// entry-for-entry.
struct BatchRequest {
  std::vector<BatchOp> ops;
};

/// The store's default frame limits (StoreServerConfig::max_batch_entries
/// and max_frame_bytes). The runtime's micro-batcher never ships a frame
/// past either, so a default server never refuses one as too large.
inline constexpr std::size_t kMaxBatchOps = 4096;
inline constexpr std::size_t kMaxFrameBytes = 4u * 1024 * 1024;

/// Bytes `op` adds to an encoded BatchRequest; the envelope adds a kind
/// byte and a u32 op count.
std::size_t encoded_size(const BatchOp& op);

struct BatchResponse {
  std::vector<BatchReply> replies;
};

using Message =
    std::variant<GetRequest, GetResponse, PutRequest, PutResponse, SyncRequest,
                 SyncResponse, HeartbeatRequest, HeartbeatResponse, PullRequest,
                 PullResponse, PushRequest, PushResponse, MembershipUpdate,
                 MembershipAck, BatchRequest, BatchResponse, ErrorResponse,
                 ProbeRequest>;

/// Lift a plain reply into an op's batch slot: GET (and probe) and PUT
/// responses map to themselves, an ErrorResponse is the op's refusal, and
/// any other kind becomes ErrorResponse{kBadRequest, "unexpected reply
/// type"}.
BatchReply to_batch_reply(Message&& reply);

/// Encode any protocol message with its type byte.
Bytes encode_message(const Message& msg);

/// encode_message() appended to `enc`'s buffer (the one encoding body).
void encode_message_into(Encoder& enc, const Message& msg);

/// Decode a message; throws SerializationError on malformed input. The
/// result owns its bytes: it never points into `data`.
Message decode_message(ByteView data);

/// Type of an encoded message without full decoding.
MessageType peek_type(ByteView data);

}  // namespace speed::serialize
