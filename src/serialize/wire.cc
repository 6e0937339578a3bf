#include "serialize/wire.h"

#include <type_traits>

namespace speed::serialize {

namespace {

void put_array32(Encoder& enc, const std::array<std::uint8_t, 32>& a) {
  enc.raw(ByteView(a.data(), a.size()));
}

std::array<std::uint8_t, 32> take_array32(Decoder& dec) {
  const ByteView b = dec.raw(32);
  std::array<std::uint8_t, 32> out;
  std::copy(b.begin(), b.end(), out.begin());
  return out;
}

void put_entry(Encoder& enc, const EntryPayload& e) {
  enc.var_bytes(e.challenge);
  enc.var_bytes(e.wrapped_key);
  enc.var_bytes(e.result_ct);
}

EntryPayload take_entry(Decoder& dec) {
  EntryPayload e;
  e.challenge = dec.var_bytes();
  e.wrapped_key = dec.var_bytes();
  e.result_ct = dec.var_bytes();
  return e;
}

// Every SyncEntry occupies at least tag + three length prefixes + hits on
// the wire; a count beyond that is hostile — reject before allocating.
constexpr std::size_t kMinSyncEntryWire = 32 + 4 + 4 + 4 + 8;

void put_sync_entries(Encoder& enc, const std::vector<SyncEntry>& entries) {
  enc.u32(static_cast<std::uint32_t>(entries.size()));
  for (const SyncEntry& s : entries) {
    put_array32(enc, s.tag);
    put_entry(enc, s.entry);
    enc.u64(s.hits);
  }
}

std::vector<SyncEntry> take_sync_entries(Decoder& dec) {
  const std::uint32_t n = dec.u32();
  if (n > dec.remaining() / kMinSyncEntryWire) {
    throw SerializationError("decode_message: implausible sync count");
  }
  std::vector<SyncEntry> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SyncEntry s;
    s.tag = take_array32(dec);
    s.entry = take_entry(dec);
    s.hits = dec.u64();
    entries.push_back(std::move(s));
  }
  return entries;
}

void put_error(Encoder& enc, const ErrorResponse& e) {
  enc.u8(static_cast<std::uint8_t>(e.code));
  enc.str(e.detail);
}

ErrorResponse take_error(Decoder& dec) {
  ErrorResponse e;
  const std::uint8_t code = dec.u8();
  if (code > static_cast<std::uint8_t>(ErrorCode::kUnavailable)) {
    throw SerializationError("decode_message: invalid ErrorCode");
  }
  e.code = static_cast<ErrorCode>(code);
  e.detail = dec.str();
  return e;
}

// The smallest batch op is a GetRequest: kind byte + tag + requester. A
// count implying less than that per entry is hostile — reject before
// allocating.
constexpr std::size_t kMinBatchOpWire = 1 + 32 + 32;
// The smallest reply is a not-found GetResponse or a PutResponse: kind byte
// + one status/flag byte.
constexpr std::size_t kMinBatchReplyWire = 1 + 1;

void put_batch_ops(Encoder& enc, const std::vector<BatchOp>& ops) {
  enc.u32(static_cast<std::uint32_t>(ops.size()));
  for (const BatchOp& op : ops) {
    std::visit(
        [&enc](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, GetRequest>) {
            enc.u8(static_cast<std::uint8_t>(MessageType::kGetRequest));
            put_array32(enc, o.tag);
            put_array32(enc, o.requester);
          } else if constexpr (std::is_same_v<T, ProbeRequest>) {
            enc.u8(static_cast<std::uint8_t>(MessageType::kProbeRequest));
            put_array32(enc, o.tag);
            put_array32(enc, o.requester);
          } else {
            enc.u8(static_cast<std::uint8_t>(MessageType::kPutRequest));
            put_array32(enc, o.tag);
            put_array32(enc, o.requester);
            put_entry(enc, o.entry);
          }
        },
        op);
  }
}

std::vector<BatchOp> take_batch_ops(Decoder& dec) {
  const std::uint32_t n = dec.u32();
  if (n > dec.remaining() / kMinBatchOpWire) {
    throw SerializationError("decode_message: implausible batch op count");
  }
  std::vector<BatchOp> ops;
  ops.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto kind = static_cast<MessageType>(dec.u8());
    if (kind == MessageType::kGetRequest) {
      GetRequest g;
      g.tag = take_array32(dec);
      g.requester = take_array32(dec);
      ops.emplace_back(g);
    } else if (kind == MessageType::kProbeRequest) {
      ProbeRequest p;
      p.tag = take_array32(dec);
      p.requester = take_array32(dec);
      ops.emplace_back(p);
    } else if (kind == MessageType::kPutRequest) {
      PutRequest p;
      p.tag = take_array32(dec);
      p.requester = take_array32(dec);
      p.entry = take_entry(dec);
      ops.emplace_back(std::move(p));
    } else {
      throw SerializationError(
          "decode_message: batch op is not GET/PUT/probe");
    }
  }
  return ops;
}

void put_batch_replies(Encoder& enc, const std::vector<BatchReply>& replies) {
  enc.u32(static_cast<std::uint32_t>(replies.size()));
  for (const BatchReply& reply : replies) {
    std::visit(
        [&enc](const auto& r) {
          using T = std::decay_t<decltype(r)>;
          if constexpr (std::is_same_v<T, GetResponse>) {
            enc.u8(static_cast<std::uint8_t>(MessageType::kGetResponse));
            enc.boolean(r.found);
            if (r.found) put_entry(enc, r.entry);
          } else if constexpr (std::is_same_v<T, PutResponse>) {
            enc.u8(static_cast<std::uint8_t>(MessageType::kPutResponse));
            enc.u8(static_cast<std::uint8_t>(r.status));
          } else {
            enc.u8(static_cast<std::uint8_t>(MessageType::kErrorResponse));
            put_error(enc, r);
          }
        },
        reply);
  }
}

std::vector<BatchReply> take_batch_replies(Decoder& dec) {
  const std::uint32_t n = dec.u32();
  if (n > dec.remaining() / kMinBatchReplyWire) {
    throw SerializationError("decode_message: implausible batch reply count");
  }
  std::vector<BatchReply> replies;
  replies.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto kind = static_cast<MessageType>(dec.u8());
    if (kind == MessageType::kGetResponse) {
      GetResponse g;
      g.found = dec.boolean();
      if (g.found) g.entry = take_entry(dec);
      replies.emplace_back(std::move(g));
    } else if (kind == MessageType::kPutResponse) {
      PutResponse p;
      const std::uint8_t status = dec.u8();
      if (status > static_cast<std::uint8_t>(PutStatus::kRejected)) {
        throw SerializationError("decode_message: invalid PutStatus");
      }
      p.status = static_cast<PutStatus>(status);
      replies.emplace_back(p);
    } else if (kind == MessageType::kErrorResponse) {
      replies.emplace_back(take_error(dec));
    } else {
      throw SerializationError("decode_message: unknown batch reply kind");
    }
  }
  return replies;
}

}  // namespace

Bytes encode_message(const Message& msg) {
  Encoder enc;
  encode_message_into(enc, msg);
  return enc.take();
}

void encode_message_into(Encoder& enc, const Message& msg) {
  std::visit(
      [&enc](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GetRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kGetRequest));
          put_array32(enc, m.tag);
          put_array32(enc, m.requester);
        } else if constexpr (std::is_same_v<T, GetResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kGetResponse));
          enc.boolean(m.found);
          if (m.found) put_entry(enc, m.entry);
        } else if constexpr (std::is_same_v<T, PutRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPutRequest));
          put_array32(enc, m.tag);
          put_array32(enc, m.requester);
          put_entry(enc, m.entry);
        } else if constexpr (std::is_same_v<T, PutResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPutResponse));
          enc.u8(static_cast<std::uint8_t>(m.status));
        } else if constexpr (std::is_same_v<T, SyncRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kSyncRequest));
          enc.u32(m.max_entries);
        } else if constexpr (std::is_same_v<T, SyncResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kSyncResponse));
          put_sync_entries(enc, m.entries);
        } else if constexpr (std::is_same_v<T, HeartbeatRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kHeartbeatRequest));
          enc.u64(m.nonce);
        } else if constexpr (std::is_same_v<T, HeartbeatResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kHeartbeatResponse));
          enc.u64(m.nonce);
          enc.u64(m.entries);
          enc.u64(m.cluster_epoch);
          enc.boolean(m.degraded);
        } else if constexpr (std::is_same_v<T, PullRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPullRequest));
          put_array32(enc, m.after);
          enc.u32(m.max_entries);
          enc.boolean(m.resume);
        } else if constexpr (std::is_same_v<T, PullResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPullResponse));
          put_sync_entries(enc, m.entries);
          put_array32(enc, m.next);
          enc.boolean(m.done);
        } else if constexpr (std::is_same_v<T, PushRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPushRequest));
          put_sync_entries(enc, m.entries);
        } else if constexpr (std::is_same_v<T, PushResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kPushResponse));
          enc.u32(m.accepted);
        } else if constexpr (std::is_same_v<T, MembershipUpdate>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kMembershipUpdate));
          enc.u64(m.epoch);
          enc.u32(static_cast<std::uint32_t>(m.members.size()));
          for (const MemberInfo& mi : m.members) {
            enc.str(mi.name);
            enc.u8(static_cast<std::uint8_t>(mi.status));
          }
        } else if constexpr (std::is_same_v<T, MembershipAck>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kMembershipAck));
          enc.u64(m.epoch);
          enc.boolean(m.applied);
        } else if constexpr (std::is_same_v<T, BatchRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kBatchRequest));
          put_batch_ops(enc, m.ops);
        } else if constexpr (std::is_same_v<T, BatchResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kBatchResponse));
          put_batch_replies(enc, m.replies);
        } else if constexpr (std::is_same_v<T, ErrorResponse>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kErrorResponse));
          put_error(enc, m);
        } else if constexpr (std::is_same_v<T, ProbeRequest>) {
          enc.u8(static_cast<std::uint8_t>(MessageType::kProbeRequest));
          put_array32(enc, m.tag);
          put_array32(enc, m.requester);
        }
      },
      msg);
}

Message decode_message(ByteView data) {
  Decoder dec(data);
  const auto type = static_cast<MessageType>(dec.u8());
  Message out;
  switch (type) {
    case MessageType::kGetRequest: {
      GetRequest m;
      m.tag = take_array32(dec);
      m.requester = take_array32(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kGetResponse: {
      GetResponse m;
      m.found = dec.boolean();
      if (m.found) m.entry = take_entry(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kPutRequest: {
      PutRequest m;
      m.tag = take_array32(dec);
      m.requester = take_array32(dec);
      m.entry = take_entry(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kPutResponse: {
      PutResponse m;
      const std::uint8_t status = dec.u8();
      if (status > static_cast<std::uint8_t>(PutStatus::kRejected)) {
        throw SerializationError("decode_message: invalid PutStatus");
      }
      m.status = static_cast<PutStatus>(status);
      out = std::move(m);
      break;
    }
    case MessageType::kSyncRequest: {
      SyncRequest m;
      m.max_entries = dec.u32();
      out = std::move(m);
      break;
    }
    case MessageType::kSyncResponse: {
      SyncResponse m;
      m.entries = take_sync_entries(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kHeartbeatRequest: {
      HeartbeatRequest m;
      m.nonce = dec.u64();
      out = std::move(m);
      break;
    }
    case MessageType::kHeartbeatResponse: {
      HeartbeatResponse m;
      m.nonce = dec.u64();
      m.entries = dec.u64();
      m.cluster_epoch = dec.u64();
      m.degraded = dec.boolean();
      out = std::move(m);
      break;
    }
    case MessageType::kPullRequest: {
      PullRequest m;
      m.after = take_array32(dec);
      m.max_entries = dec.u32();
      m.resume = dec.boolean();
      out = std::move(m);
      break;
    }
    case MessageType::kPullResponse: {
      PullResponse m;
      m.entries = take_sync_entries(dec);
      m.next = take_array32(dec);
      m.done = dec.boolean();
      out = std::move(m);
      break;
    }
    case MessageType::kPushRequest: {
      PushRequest m;
      m.entries = take_sync_entries(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kPushResponse: {
      PushResponse m;
      m.accepted = dec.u32();
      out = std::move(m);
      break;
    }
    case MessageType::kMembershipUpdate: {
      MembershipUpdate m;
      m.epoch = dec.u64();
      const std::uint32_t n = dec.u32();
      // Each member costs at least a name length prefix + status byte.
      constexpr std::size_t kMinMemberWire = 4 + 1;
      if (n > dec.remaining() / kMinMemberWire) {
        throw SerializationError("decode_message: implausible member count");
      }
      m.members.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        MemberInfo mi;
        mi.name = dec.str();
        const std::uint8_t status = dec.u8();
        if (status > static_cast<std::uint8_t>(MemberStatus::kUp)) {
          throw SerializationError("decode_message: invalid MemberStatus");
        }
        mi.status = static_cast<MemberStatus>(status);
        m.members.push_back(std::move(mi));
      }
      out = std::move(m);
      break;
    }
    case MessageType::kMembershipAck: {
      MembershipAck m;
      m.epoch = dec.u64();
      m.applied = dec.boolean();
      out = std::move(m);
      break;
    }
    case MessageType::kBatchRequest: {
      BatchRequest m;
      m.ops = take_batch_ops(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kBatchResponse: {
      BatchResponse m;
      m.replies = take_batch_replies(dec);
      out = std::move(m);
      break;
    }
    case MessageType::kErrorResponse: {
      out = take_error(dec);
      break;
    }
    case MessageType::kProbeRequest: {
      ProbeRequest m;
      m.tag = take_array32(dec);
      m.requester = take_array32(dec);
      out = std::move(m);
      break;
    }
    default:
      throw SerializationError("decode_message: unknown message type");
  }
  dec.expect_done();
  return out;
}

std::vector<BatchOp> batch_of(BatchOp op) {
  std::vector<BatchOp> ops;
  ops.push_back(std::move(op));
  return ops;
}

BatchReply to_batch_reply(Message&& reply) {
  return std::visit(
      [](auto&& m) -> BatchReply {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GetResponse> ||
                      std::is_same_v<T, PutResponse> ||
                      std::is_same_v<T, ErrorResponse>) {
          return std::move(m);
        } else {
          return ErrorResponse{ErrorCode::kBadRequest, "unexpected reply type"};
        }
      },
      std::move(reply));
}

std::size_t encoded_size(const BatchOp& op) {
  // put_batch_ops: a GetRequest's (or ProbeRequest's) fixed fields, plus a
  // PutRequest's entry as three length-prefixed byte strings.
  if (const auto* put = std::get_if<PutRequest>(&op)) {
    return kMinBatchOpWire + 3 * 4 + put->entry.challenge.size() +
           put->entry.wrapped_key.size() + put->entry.result_ct.size();
  }
  return kMinBatchOpWire;
}

MessageType peek_type(ByteView data) {
  if (data.empty()) throw SerializationError("peek_type: empty message");
  const std::uint8_t t = data[0];
  if (t < 1 || t > static_cast<std::uint8_t>(MessageType::kProbeRequest)) {
    throw SerializationError("peek_type: unknown type");
  }
  return static_cast<MessageType>(t);
}

}  // namespace speed::serialize
