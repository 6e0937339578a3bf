// Tests for the canonical codec, Serde, function descriptors, and the wire
// protocol messages.
#include <gtest/gtest.h>

#include <limits>

#include "serialize/codec.h"
#include "serialize/function_descriptor.h"
#include "serialize/rendezvous.h"
#include "serialize/serde.h"
#include "serialize/wire.h"

namespace speed::serialize {
namespace {

TEST(CodecTest, IntegerRoundTrip) {
  Encoder enc;
  enc.u8(0xab);
  enc.u16(0xbeef);
  enc.u32(0xdeadbeef);
  enc.u64(0x0123456789abcdefULL);
  enc.f64(3.14159);
  enc.boolean(true);
  const Bytes data = enc.take();

  Decoder dec(data);
  EXPECT_EQ(dec.u8(), 0xab);
  EXPECT_EQ(dec.u16(), 0xbeef);
  EXPECT_EQ(dec.u32(), 0xdeadbeefu);
  EXPECT_EQ(dec.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(dec.f64(), 3.14159);
  EXPECT_TRUE(dec.boolean());
  dec.expect_done();
}

TEST(CodecTest, ExtremeValues) {
  Encoder enc;
  enc.u64(0);
  enc.u64(std::numeric_limits<std::uint64_t>::max());
  enc.f64(-0.0);
  enc.f64(std::numeric_limits<double>::infinity());
  const Bytes data = enc.take();
  Decoder dec(data);
  EXPECT_EQ(dec.u64(), 0u);
  EXPECT_EQ(dec.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(dec.f64(), 0.0);
  EXPECT_EQ(dec.f64(), std::numeric_limits<double>::infinity());
}

TEST(CodecTest, VarBytesRoundTrip) {
  Encoder enc;
  enc.var_bytes(to_bytes("hello"));
  enc.var_bytes({});
  enc.str("world");
  const Bytes data = enc.take();
  Decoder dec(data);
  EXPECT_EQ(dec.var_bytes(), to_bytes("hello"));
  EXPECT_EQ(dec.var_bytes(), Bytes{});
  EXPECT_EQ(dec.str(), "world");
}

TEST(CodecTest, TruncationThrows) {
  Encoder enc;
  enc.u64(42);
  const Bytes data = enc.take();
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    Decoder dec(ByteView(data).first(cut));
    EXPECT_THROW(dec.u64(), SerializationError) << "cut " << cut;
  }
}

TEST(CodecTest, VarBytesLengthLiesThrow) {
  Encoder enc;
  enc.u32(1000);  // claims 1000 bytes follow
  enc.raw(to_bytes("short"));
  Decoder dec(enc.view());
  EXPECT_THROW(dec.var_bytes(), SerializationError);
}

TEST(CodecTest, InvalidBooleanThrows) {
  const Bytes data = {2};
  Decoder dec(data);
  EXPECT_THROW(dec.boolean(), SerializationError);
}

TEST(CodecTest, ExpectDoneCatchesTrailingBytes) {
  const Bytes data = {1, 2, 3};
  Decoder dec(data);
  dec.u8();
  EXPECT_THROW(dec.expect_done(), SerializationError);
}

TEST(SerdeTest, PrimitiveRoundTrips) {
  EXPECT_EQ(deserialize<int>(serialize(-42)), -42);
  EXPECT_EQ(deserialize<std::uint64_t>(serialize<std::uint64_t>(1ull << 63)),
            1ull << 63);
  EXPECT_EQ(deserialize<bool>(serialize(true)), true);
  EXPECT_DOUBLE_EQ(deserialize<double>(serialize(2.5)), 2.5);
  EXPECT_EQ(deserialize<std::string>(serialize(std::string("abc"))), "abc");
  EXPECT_EQ(deserialize<Bytes>(serialize(to_bytes("xyz"))), to_bytes("xyz"));
}

TEST(SerdeTest, ContainerRoundTrips) {
  const std::vector<std::string> v = {"a", "", "ccc"};
  EXPECT_EQ(deserialize<std::vector<std::string>>(serialize(v)), v);

  const std::map<std::string, std::uint32_t> m = {{"dog", 2}, {"cat", 5}};
  EXPECT_EQ((deserialize<std::map<std::string, std::uint32_t>>(serialize(m))), m);

  const std::pair<Bytes, std::uint32_t> p = {to_bytes("data"), 9};
  EXPECT_EQ((deserialize<std::pair<Bytes, std::uint32_t>>(serialize(p))), p);

  const std::vector<std::vector<int>> nested = {{1, 2}, {}, {3}};
  EXPECT_EQ(deserialize<std::vector<std::vector<int>>>(serialize(nested)),
            nested);
}

TEST(SerdeTest, TrailingGarbageRejected) {
  Bytes data = serialize(std::string("ok"));
  data.push_back(0xff);
  EXPECT_THROW(deserialize<std::string>(data), SerializationError);
}

TEST(FunctionDescriptorTest, CanonicalIsInjective) {
  const FunctionDescriptor a{"zlib", "1.2.11", "deflate"};
  const FunctionDescriptor b{"zli", "b1.2.11", "deflate"};
  const FunctionDescriptor c{"zlib", "1.2.11", "inflate"};
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_NE(a.canonical(), c.canonical());
  EXPECT_EQ(a.canonical(), FunctionDescriptor(a).canonical());
}

// ------------------------------------------------------------ wire protocol

Tag make_tag(std::uint8_t fill) {
  Tag t;
  t.fill(fill);
  return t;
}

EntryPayload make_entry() {
  EntryPayload e;
  e.challenge = to_bytes("rrrrrrrrrrrrrrrrrrrrrrrrrrrrrrrr");
  e.wrapped_key = to_bytes("kkkkkkkkkkkkkkkk");
  e.result_ct = to_bytes("ciphertext-bytes-here");
  return e;
}

TEST(WireTest, GetRequestRoundTrip) {
  GetRequest req;
  req.tag = make_tag(0x11);
  req.requester = make_tag(0x22);
  const Bytes data = encode_message(req);
  EXPECT_EQ(peek_type(data), MessageType::kGetRequest);
  const auto decoded = std::get<GetRequest>(decode_message(data));
  EXPECT_EQ(decoded.tag, req.tag);
  EXPECT_EQ(decoded.requester, req.requester);
}

TEST(WireTest, GetResponseRoundTripFoundAndMiss) {
  GetResponse hit;
  hit.found = true;
  hit.entry = make_entry();
  const auto decoded_hit =
      std::get<GetResponse>(decode_message(encode_message(hit)));
  EXPECT_TRUE(decoded_hit.found);
  EXPECT_EQ(decoded_hit.entry, hit.entry);

  GetResponse miss;
  const auto decoded_miss =
      std::get<GetResponse>(decode_message(encode_message(miss)));
  EXPECT_FALSE(decoded_miss.found);
  EXPECT_TRUE(decoded_miss.entry.result_ct.empty());
}

TEST(WireTest, ProbeRequestRoundTripsPlainAndBatched) {
  ProbeRequest req;
  req.tag = make_tag(0x55);
  req.requester = make_tag(0x66);
  const Bytes data = encode_message(req);
  EXPECT_EQ(peek_type(data), MessageType::kProbeRequest);
  const auto decoded = std::get<ProbeRequest>(decode_message(data));
  EXPECT_EQ(decoded.tag, req.tag);
  EXPECT_EQ(decoded.requester, req.requester);

  BatchRequest batch;
  batch.ops.emplace_back(req);
  batch.ops.emplace_back(GetRequest{make_tag(0x77), make_tag(0x66)});
  const Bytes wire = encode_message(batch);
  EXPECT_EQ(wire.size(),
            1 + 4 + encoded_size(batch.ops[0]) + encoded_size(batch.ops[1]));
  const auto back = std::get<BatchRequest>(decode_message(wire));
  ASSERT_EQ(back.ops.size(), 2u);
  ASSERT_TRUE(std::holds_alternative<ProbeRequest>(back.ops[0]));
  EXPECT_EQ(std::get<ProbeRequest>(back.ops[0]).tag, req.tag);
  EXPECT_TRUE(std::holds_alternative<GetRequest>(back.ops[1]));
}

TEST(WireTest, PutRequestRoundTrip) {
  PutRequest req;
  req.tag = make_tag(0x33);
  req.requester = make_tag(0x44);
  req.entry = make_entry();
  const auto decoded = std::get<PutRequest>(decode_message(encode_message(req)));
  EXPECT_EQ(decoded.tag, req.tag);
  EXPECT_EQ(decoded.entry, req.entry);
}

TEST(WireTest, PutResponseStatuses) {
  for (const auto status :
       {PutStatus::kStored, PutStatus::kAlreadyPresent,
        PutStatus::kQuotaExceeded, PutStatus::kRejected}) {
    PutResponse resp{status};
    const auto decoded =
        std::get<PutResponse>(decode_message(encode_message(resp)));
    EXPECT_EQ(decoded.status, status);
  }
}

TEST(WireTest, SyncRoundTrip) {
  SyncResponse resp;
  for (int i = 0; i < 3; ++i) {
    SyncEntry e;
    e.tag = make_tag(static_cast<std::uint8_t>(i));
    e.entry = make_entry();
    e.hits = static_cast<std::uint64_t>(100 - i);
    resp.entries.push_back(e);
  }
  const auto decoded =
      std::get<SyncResponse>(decode_message(encode_message(resp)));
  ASSERT_EQ(decoded.entries.size(), 3u);
  EXPECT_EQ(decoded.entries[0].hits, 100u);
  EXPECT_EQ(decoded.entries[2].entry, make_entry());

  SyncRequest req{17};
  EXPECT_EQ(std::get<SyncRequest>(decode_message(encode_message(req))).max_entries,
            17u);
}

TEST(WireTest, HeartbeatRoundTrip) {
  HeartbeatRequest req{0x1234567890abcdefull};
  EXPECT_EQ(std::get<HeartbeatRequest>(decode_message(encode_message(req))).nonce,
            req.nonce);

  HeartbeatResponse resp;
  resp.nonce = req.nonce;
  resp.entries = 42;
  resp.cluster_epoch = 7;
  resp.degraded = true;
  const Bytes data = encode_message(resp);
  EXPECT_EQ(peek_type(data), MessageType::kHeartbeatResponse);
  const auto decoded = std::get<HeartbeatResponse>(decode_message(data));
  EXPECT_EQ(decoded.nonce, resp.nonce);
  EXPECT_EQ(decoded.entries, 42u);
  EXPECT_EQ(decoded.cluster_epoch, 7u);
  EXPECT_TRUE(decoded.degraded);
}

TEST(WireTest, PullRoundTrip) {
  PullRequest req;
  req.after = make_tag(0x5a);
  req.max_entries = 128;
  req.resume = true;
  const auto dreq = std::get<PullRequest>(decode_message(encode_message(req)));
  EXPECT_EQ(dreq.after, req.after);
  EXPECT_EQ(dreq.max_entries, 128u);
  EXPECT_TRUE(dreq.resume);

  PullResponse resp;
  SyncEntry e;
  e.tag = make_tag(0x01);
  e.entry = make_entry();
  e.hits = 9;
  resp.entries.push_back(e);
  resp.next = make_tag(0x01);
  resp.done = false;
  const auto dresp =
      std::get<PullResponse>(decode_message(encode_message(resp)));
  ASSERT_EQ(dresp.entries.size(), 1u);
  EXPECT_EQ(dresp.entries[0].entry, make_entry());
  EXPECT_EQ(dresp.next, resp.next);
  EXPECT_FALSE(dresp.done);
}

TEST(WireTest, PushRoundTrip) {
  PushRequest req;
  for (int i = 0; i < 2; ++i) {
    SyncEntry e;
    e.tag = make_tag(static_cast<std::uint8_t>(i));
    e.entry = make_entry();
    e.hits = static_cast<std::uint64_t>(i);
    req.entries.push_back(e);
  }
  const auto dreq = std::get<PushRequest>(decode_message(encode_message(req)));
  EXPECT_EQ(dreq.entries.size(), 2u);

  PushResponse resp{2};
  EXPECT_EQ(std::get<PushResponse>(decode_message(encode_message(resp))).accepted,
            2u);
}

TEST(WireTest, MembershipRoundTrip) {
  MembershipUpdate up;
  up.epoch = 11;
  up.members = {{"node-a", MemberStatus::kUp},
                {"node-b", MemberStatus::kDown},
                {"node-c", MemberStatus::kUp}};
  const Bytes data = encode_message(up);
  EXPECT_EQ(peek_type(data), MessageType::kMembershipUpdate);
  const auto decoded = std::get<MembershipUpdate>(decode_message(data));
  EXPECT_EQ(decoded.epoch, 11u);
  EXPECT_EQ(decoded.members, up.members);

  MembershipAck ack;
  ack.epoch = 11;
  ack.applied = true;
  const auto dack = std::get<MembershipAck>(decode_message(encode_message(ack)));
  EXPECT_EQ(dack.epoch, 11u);
  EXPECT_TRUE(dack.applied);
}

TEST(WireTest, HostileClusterCountsRejected) {
  // A PushRequest claiming far more entries than the payload could hold
  // must be rejected before any allocation happens.
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MessageType::kPushRequest));
  enc.u32(0xffffffffu);
  EXPECT_THROW(decode_message(enc.view()), SerializationError);

  Encoder menc;
  menc.u8(static_cast<std::uint8_t>(MessageType::kMembershipUpdate));
  menc.u64(1);
  menc.u32(0xffffffffu);
  EXPECT_THROW(decode_message(menc.view()), SerializationError);

  // Invalid MemberStatus byte.
  MembershipUpdate up;
  up.epoch = 1;
  up.members = {{"n", MemberStatus::kUp}};
  Bytes bad = encode_message(up);
  bad.back() = 7;
  EXPECT_THROW(decode_message(bad), SerializationError);
}

// --------------------------------------------------------- rendezvous ring

TEST(RendezvousTest, OrderIsDeterministicAndTotal) {
  const std::vector<MemberInfo> members = {
      {"node-0", MemberStatus::kUp},
      {"node-1", MemberStatus::kUp},
      {"node-2", MemberStatus::kUp}};
  const Tag tag = make_tag(0x7e);
  const auto a = rendezvous_order(members, tag);
  const auto b = rendezvous_order(members, tag);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RendezvousTest, RemovingANodeOnlyReassignsItsTags) {
  const std::vector<MemberInfo> full = {{"node-0", MemberStatus::kUp},
                                        {"node-1", MemberStatus::kUp},
                                        {"node-2", MemberStatus::kUp}};
  // Remove node-1; tags owned by node-0 or node-2 must keep their primary.
  const std::vector<MemberInfo> reduced = {{"node-0", MemberStatus::kUp},
                                           {"node-2", MemberStatus::kUp}};
  int moved = 0, kept = 0;
  for (int i = 0; i < 256; ++i) {
    Tag tag{};
    tag.fill(static_cast<std::uint8_t>(i));
    tag[16] = static_cast<std::uint8_t>(i * 37);  // vary the scored window
    const auto before = rendezvous_order(full, tag);
    const auto after = rendezvous_order(reduced, tag);
    const std::string& owner_before = full[before[0]].name;
    const std::string& owner_after = reduced[after[0]].name;
    if (owner_before == "node-1") {
      ++moved;  // must be reassigned somewhere
    } else {
      EXPECT_EQ(owner_before, owner_after);
      ++kept;
    }
  }
  // With uniform placement each node owns roughly a third.
  EXPECT_GT(moved, 0);
  EXPECT_GT(kept, moved);
}

TEST(RendezvousTest, PlacementIsRoughlyBalanced) {
  const std::vector<MemberInfo> members = {{"node-0", MemberStatus::kUp},
                                           {"node-1", MemberStatus::kUp},
                                           {"node-2", MemberStatus::kUp}};
  std::array<int, 3> owned{};
  for (int i = 0; i < 999; ++i) {
    Tag tag{};
    for (std::size_t b = 0; b < tag.size(); ++b) {
      tag[b] = static_cast<std::uint8_t>((i * 131 + b * 29) & 0xff);
    }
    ++owned[rendezvous_order(members, tag)[0]];
  }
  for (const int count : owned) {
    EXPECT_GT(count, 999 / 6) << "placement badly skewed";
    EXPECT_LT(count, 999 / 2) << "placement badly skewed";
  }
}

TEST(WireTest, MalformedInputsThrow) {
  EXPECT_THROW(decode_message({}), SerializationError);
  const Bytes bad_type = {99};
  EXPECT_THROW(decode_message(bad_type), SerializationError);
  EXPECT_THROW(peek_type({}), SerializationError);
  EXPECT_THROW(peek_type(bad_type), SerializationError);

  // Truncated GetRequest.
  GetRequest req;
  const Bytes data = encode_message(req);
  EXPECT_THROW(decode_message(ByteView(data).first(data.size() - 1)),
               SerializationError);

  // Trailing garbage.
  Bytes extended = data;
  extended.push_back(0);
  EXPECT_THROW(decode_message(extended), SerializationError);

  // Invalid PutStatus byte.
  Bytes bad_status = encode_message(PutResponse{PutStatus::kStored});
  bad_status[1] = 9;
  EXPECT_THROW(decode_message(bad_status), SerializationError);
}

}  // namespace
}  // namespace speed::serialize
