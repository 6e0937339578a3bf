#include "runtime/stream_session.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"
#include "crypto/gcm.h"
#include "serialize/codec.h"

namespace speed::runtime {

using serialize::BatchOp;
using serialize::BatchReply;
using serialize::GetRequest;
using serialize::GetResponse;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;

namespace {

/// Recover the per-entry key from a stored entry and prove it decrypts
/// under the expected tag. Returns the key, or nullopt for a missing,
/// foreign, or poisoned entry (the GCM ⊥ of Fig. 3). The proof opens the
/// entry into `opened`, which the caller keeps for a whole put: it grows to
/// the largest entry opened and wipes itself when the put returns.
std::optional<secret::Buffer> adopt_entry(const mle::ComputationContext& ctx,
                                          const serialize::Tag& tag,
                                          const GetResponse& resp,
                                          secret::Buffer& opened) {
  const ByteView ct = resp.entry.result_ct;
  if (!resp.found || resp.entry.wrapped_key.size() != mle::kResultKeySize ||
      ct.size() < crypto::gcm_envelope_size(0)) {
    return std::nullopt;
  }
  const std::size_t size = ct.size() - crypto::gcm_envelope_size(0);
  if (opened.size() < size) opened = secret::Buffer(size);
  secret::Buffer key = mle::ResultCipher::recover_key(
      ctx, resp.entry.challenge, resp.entry.wrapped_key);
  if (!mle::ResultCipher::decrypt_result_into(tag, key, ct,
                                              opened.writable().first(size))) {
    return std::nullopt;
  }
  return key;
}

}  // namespace

Bytes StreamHandle::serialize() const {
  serialize::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.raw(ByteView(tag.data(), tag.size()));
  // Deliberate escape: the handle IS the capability to read the stream, and
  // it leaves the enclave to whoever stored the data. Key + inline manifest
  // (which holds chunk keys) travel together with the same trust.
  enc.var_bytes(key.reveal_for(secret::Purpose::of("stream_handle_release")));
  enc.u64(total_bytes);
  enc.var_bytes(manifest);
  return enc.take();
}

StreamHandle StreamHandle::deserialize(ByteView data) {
  serialize::Decoder dec(data);
  StreamHandle h;
  const std::uint8_t kind = dec.u8();
  if (kind > static_cast<std::uint8_t>(Kind::kInlineManifest)) {
    throw SerializationError("StreamHandle: unknown kind");
  }
  h.kind = static_cast<Kind>(kind);
  const ByteView t = dec.raw(h.tag.size());
  std::copy(t.begin(), t.end(), h.tag.begin());
  h.key = secret::Buffer::absorb(dec.var_bytes());
  h.total_bytes = dec.u64();
  h.manifest = dec.var_bytes();
  dec.expect_done();
  return h;
}

StreamSession::StreamSession(DedupRuntime& rt, mle::FunctionIdentity fn,
                             StreamConfig config)
    : rt_(rt), fn_(std::move(fn)), config_(config), chunker_(config.chunker) {
  if (config_.window == 0) config_.window = 1;
}

GetRequest StreamSession::make_get(const serialize::Tag& tag) const {
  GetRequest get;
  get.tag = tag;
  get.requester = rt_.enclave().measurement();
  return get;
}

StreamHandle StreamSession::put(ByteView data) {
  return rt_.enclave().ecall([&] { return put_trusted(data); });
}

Bytes StreamSession::get(const StreamHandle& handle) {
  return rt_.enclave().ecall([&] { return get_trusted(handle); });
}

StreamHandle StreamSession::put_trusted(ByteView data) {
  rt_.metrics_.stream_puts.inc();
  crypto::Drbg drbg(rt_.enclave().random_bytes(32));
  secret::Buffer opened;  // every adopted entry is opened here
  const chunk::ChunkPlan plan = chunk::ChunkPlan::build(fn_, data, chunker_);
  if (plan.whole_call()) return put_whole_call(plan, drbg, opened);

  const bool fail_open = rt_.config_.fail_open;
  bool degraded = false;

  // Fast path: some client (maybe us) already stored this exact stream —
  // one GET dedups the whole put.
  bool stream_tag_taken = false;  // an entry we cannot use squats on the tag
  {
    std::vector<BatchReply> replies =
        rt_.stream_ops({make_get(plan.stream_tag())});
    if (const auto* get_resp = std::get_if<GetResponse>(&replies.front())) {
      if (get_resp->found) {
        auto key = adopt_entry(plan.stream_context(), plan.stream_tag(),
                               *get_resp, opened);
        if (key.has_value()) {
          rt_.metrics_.stream_whole_hits.inc();
          rt_.metrics_.stream_bytes_deduped.inc(data.size());
          StreamHandle handle;
          handle.kind = StreamHandle::Kind::kStream;
          handle.tag = plan.stream_tag();
          handle.key = std::move(*key);
          handle.total_bytes = data.size();
          return handle;
        }
        stream_tag_taken = true;
      }
    }
    // An error reply here is not yet fatal: the chunk walk below will hit
    // the same failure per window and degrade chunk-by-chunk.
  }

  rt_.metrics_.stream_chunks.inc(plan.chunk_count());

  chunk::Manifest manifest;
  manifest.total_bytes = data.size();
  manifest.entries.resize(plan.chunk_count());

  // A chunk that cannot live in the store (PUT refused, poisoned tag, store
  // down) rides inside the manifest instead; get() stays correct.
  const auto inline_chunk = [&](std::size_t i) {
    chunk::ManifestEntry& e = manifest.entries[i];
    e.inlined = true;
    const ByteView bytes = plan.chunk_bytes(i);
    e.inline_bytes.assign(bytes.begin(), bytes.end());
    rt_.metrics_.stream_inline_chunks.inc();
  };
  const auto ref_chunk = [&](std::size_t i, secret::Buffer key) {
    chunk::ManifestEntry& e = manifest.entries[i];
    e.tag = plan.chunk_tag(i);
    e.size = static_cast<std::uint32_t>(plan.chunk(i).size);
    e.key = std::move(key);
  };

  for (std::size_t base = 0; base < plan.chunk_count();
       base += config_.window) {
    const std::size_t end =
        std::min(base + config_.window, plan.chunk_count());

    // One batched GET frame for the window (per-node sub-batches in cluster
    // mode: each chunk tag routes to its own primary).
    std::vector<BatchOp> gets;
    gets.reserve(end - base);
    for (std::size_t i = base; i < end; ++i) {
      gets.emplace_back(make_get(plan.chunk_tag(i)));
    }
    const std::vector<BatchReply> replies = rt_.stream_ops(std::move(gets));

    std::vector<std::size_t> misses;
    for (std::size_t i = base; i < end; ++i) {
      const BatchReply& reply = replies[i - base];
      const auto* get_resp = std::get_if<GetResponse>(&reply);
      if (get_resp == nullptr) {
        if (!fail_open) {
          throw net::StoreUnavailableError("stream put: chunk GET failed");
        }
        degraded = true;
        inline_chunk(i);
        continue;
      }
      if (get_resp->found) {
        auto key = adopt_entry(plan.chunk_context(i), plan.chunk_tag(i),
                               *get_resp, opened);
        if (key.has_value()) {
          rt_.metrics_.stream_chunk_hits.inc();
          rt_.metrics_.stream_bytes_deduped.inc(plan.chunk(i).size);
          ref_chunk(i, std::move(*key));
        } else {
          inline_chunk(i);  // squatted tag: first write wins, we cannot reuse
        }
        continue;
      }
      misses.push_back(i);
    }

    if (misses.empty()) continue;

    // One batched PUT frame for the window's misses. Synchronous by design:
    // put() returns only once every referenced chunk is durable, and a
    // refusal can still demote the chunk to inline.
    std::vector<BatchOp> puts;
    std::vector<secret::Buffer> keys;  // parallel to misses
    puts.reserve(misses.size());
    keys.reserve(misses.size());
    for (const std::size_t i : misses) {
      auto wk = mle::ResultCipher::generate_key(plan.chunk_context(i), drbg);
      PutRequest put;
      put.tag = plan.chunk_tag(i);
      put.requester = rt_.enclave().measurement();
      put.entry.wrapped_key = std::move(wk.wrapped_key);
      put.entry.result_ct = mle::ResultCipher::encrypt_result(
          plan.chunk_tag(i), wk.key, plan.chunk_bytes(i), drbg);
      put.entry.challenge = std::move(wk.challenge)
                                .release_for(secret::Purpose::of(
                                    "rce_challenge_publish"));
      puts.emplace_back(std::move(put));
      keys.push_back(std::move(wk.key));
    }
    const std::vector<BatchReply> put_replies =
        rt_.stream_ops(std::move(puts));

    std::vector<std::size_t> races;  // kAlreadyPresent: a concurrent writer won
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const std::size_t i = misses[j];
      const auto* put_resp = std::get_if<PutResponse>(&put_replies[j]);
      if (put_resp == nullptr) {
        if (!fail_open) {
          throw net::StoreUnavailableError("stream put: chunk PUT failed");
        }
        degraded = true;
        inline_chunk(i);
        continue;
      }
      rt_.metrics_.puts_sent.inc();
      if (put_resp->status == PutStatus::kStored) {
        ref_chunk(i, std::move(keys[j]));
      } else if (put_resp->status == PutStatus::kAlreadyPresent) {
        races.push_back(i);  // the stored entry wraps the winner's key, not ours
      } else {
        rt_.metrics_.puts_rejected.inc();
        inline_chunk(i);  // quota or policy refusal
      }
    }

    if (races.empty()) continue;
    // Re-GET raced tags and adopt the winner's entry (same content, so the
    // secondary key recovers their k). A failure here inlines the chunk.
    std::vector<BatchOp> regets;
    regets.reserve(races.size());
    for (const std::size_t i : races) {
      regets.emplace_back(make_get(plan.chunk_tag(i)));
    }
    const std::vector<BatchReply> reget_replies =
        rt_.stream_ops(std::move(regets));
    for (std::size_t j = 0; j < races.size(); ++j) {
      const std::size_t i = races[j];
      const auto* get_resp = std::get_if<GetResponse>(&reget_replies[j]);
      std::optional<secret::Buffer> key;
      if (get_resp != nullptr) {
        key = adopt_entry(plan.chunk_context(i), plan.chunk_tag(i), *get_resp,
                          opened);
      }
      if (key.has_value()) {
        rt_.metrics_.stream_chunk_hits.inc();
        rt_.metrics_.stream_bytes_deduped.inc(plan.chunk(i).size);
        ref_chunk(i, std::move(*key));
      } else {
        if (get_resp == nullptr) degraded = true;
        inline_chunk(i);
      }
    }
  }

  const Bytes manifest_plain = chunk::encode_manifest(manifest);
  rt_.metrics_.stream_manifest_bytes.record(manifest_plain.size());

  StreamHandle handle;
  handle.kind = StreamHandle::Kind::kStream;
  handle.tag = plan.stream_tag();
  handle.total_bytes = data.size();

  // Last resort: the manifest rides inside the handle. The chunk entries
  // that did land in the store are still referenced and still dedup.
  const auto inline_manifest = [&] {
    handle.kind = StreamHandle::Kind::kInlineManifest;
    handle.key = secret::Buffer();
    handle.manifest = manifest_plain;
  };

  if (stream_tag_taken) {
    inline_manifest();  // squatted stream tag: first write wins
  } else {
    auto wk = mle::ResultCipher::generate_key(plan.stream_context(), drbg);
    PutRequest put;
    put.tag = plan.stream_tag();
    put.requester = rt_.enclave().measurement();
    put.entry.wrapped_key = std::move(wk.wrapped_key);
    put.entry.result_ct = mle::ResultCipher::encrypt_result(
        plan.stream_tag(), wk.key, manifest_plain, drbg);
    put.entry.challenge = std::move(wk.challenge)
                              .release_for(secret::Purpose::of(
                                  "rce_challenge_publish"));
    std::vector<BatchReply> replies = rt_.stream_ops({std::move(put)});
    const auto* put_resp = std::get_if<PutResponse>(&replies.front());
    if (put_resp == nullptr) {
      if (!fail_open) {
        throw net::StoreUnavailableError("stream put: manifest PUT failed");
      }
      degraded = true;
      inline_manifest();
    } else if (put_resp->status == PutStatus::kStored) {
      rt_.metrics_.puts_sent.inc();
      handle.key = std::move(wk.key);
    } else if (put_resp->status == PutStatus::kAlreadyPresent) {
      // Raced manifest writer: adopt theirs (same stream, same content).
      rt_.metrics_.puts_sent.inc();
      std::vector<BatchReply> reget =
          rt_.stream_ops({make_get(plan.stream_tag())});
      const auto* get_resp = std::get_if<GetResponse>(&reget.front());
      std::optional<secret::Buffer> key;
      if (get_resp != nullptr) {
        key = adopt_entry(plan.stream_context(), plan.stream_tag(), *get_resp,
                          opened);
      }
      if (key.has_value()) {
        handle.key = std::move(*key);
      } else {
        if (get_resp == nullptr) degraded = true;
        inline_manifest();
      }
    } else {
      rt_.metrics_.puts_sent.inc();
      rt_.metrics_.puts_rejected.inc();
      inline_manifest();
    }
  }

  if (degraded) rt_.metrics_.stream_degraded.inc();
  return handle;
}

StreamHandle StreamSession::put_whole_call(const chunk::ChunkPlan& plan,
                                           crypto::Drbg& drbg,
                                           secret::Buffer& opened) {
  // Single-chunk degrade: exactly the per-call protocol — whole-call domain
  // context, one GET, one plain PUT on a miss, no manifest. The wire frames
  // are the ones DedupRuntime::execute would produce for this input.
  const mle::ComputationContext& ctx = plan.stream_context();  // Domain::kCall
  const serialize::Tag& tag = plan.stream_tag();
  const bool fail_open = rt_.config_.fail_open;

  StreamHandle handle;
  handle.kind = StreamHandle::Kind::kWholeCall;
  handle.tag = tag;
  handle.total_bytes = plan.total_bytes();

  // Store unusable for this input: the handle carries a one-entry inline
  // manifest, keeping get() self-contained.
  const auto inline_degrade = [&] {
    chunk::Manifest m;
    m.total_bytes = plan.total_bytes();
    chunk::ManifestEntry e;
    e.inlined = true;
    const ByteView input = plan.input();
    e.inline_bytes.assign(input.begin(), input.end());
    m.entries.push_back(std::move(e));
    handle.kind = StreamHandle::Kind::kInlineManifest;
    handle.key = secret::Buffer();
    handle.manifest = chunk::encode_manifest(m);
    rt_.metrics_.stream_inline_chunks.inc();
  };

  std::vector<BatchReply> replies = rt_.stream_ops({make_get(tag)});
  const auto* get_resp = std::get_if<GetResponse>(&replies.front());
  if (get_resp == nullptr) {
    if (!fail_open) {
      throw net::StoreUnavailableError("stream put: GET failed");
    }
    rt_.metrics_.stream_degraded.inc();
    inline_degrade();
    return handle;
  }
  if (get_resp->found) {
    auto key = adopt_entry(ctx, tag, *get_resp, opened);
    if (key.has_value()) {
      rt_.metrics_.stream_whole_hits.inc();
      rt_.metrics_.stream_bytes_deduped.inc(plan.total_bytes());
      handle.key = std::move(*key);
      return handle;
    }
    inline_degrade();  // poisoned/foreign entry squats on the tag
    return handle;
  }

  // Miss: protect + synchronous PUT (put() returns with the data durable).
  auto wk = mle::ResultCipher::generate_key(ctx, drbg);
  PutRequest put;
  put.tag = tag;
  put.requester = rt_.enclave().measurement();
  put.entry.wrapped_key = std::move(wk.wrapped_key);
  put.entry.result_ct =
      mle::ResultCipher::encrypt_result(tag, wk.key, plan.input(), drbg);
  put.entry.challenge = std::move(wk.challenge)
                            .release_for(secret::Purpose::of(
                                "rce_challenge_publish"));
  std::vector<BatchReply> put_replies = rt_.stream_ops({std::move(put)});
  const auto* put_resp = std::get_if<PutResponse>(&put_replies.front());
  if (put_resp == nullptr) {
    if (!fail_open) {
      throw net::StoreUnavailableError("stream put: PUT failed");
    }
    rt_.metrics_.stream_degraded.inc();
    inline_degrade();
    return handle;
  }
  rt_.metrics_.puts_sent.inc();
  if (put_resp->status == PutStatus::kStored) {
    handle.key = std::move(wk.key);
    return handle;
  }
  if (put_resp->status == PutStatus::kAlreadyPresent) {
    std::vector<BatchReply> reget = rt_.stream_ops({make_get(tag)});
    const auto* reget_resp = std::get_if<GetResponse>(&reget.front());
    std::optional<secret::Buffer> key;
    if (reget_resp != nullptr) {
      key = adopt_entry(ctx, tag, *reget_resp, opened);
    }
    if (key.has_value()) {
      handle.key = std::move(*key);
      return handle;
    }
    if (reget_resp == nullptr) rt_.metrics_.stream_degraded.inc();
    inline_degrade();
    return handle;
  }
  rt_.metrics_.puts_rejected.inc();
  inline_degrade();
  return handle;
}

Bytes StreamSession::get_trusted(const StreamHandle& handle) {
  rt_.metrics_.stream_gets.inc();
  switch (handle.kind) {
    case StreamHandle::Kind::kInlineManifest:
      return assemble(chunk::decode_manifest(handle.manifest));

    case StreamHandle::Kind::kWholeCall: {
      if (handle.key.size() != mle::kResultKeySize) {
        throw ProtocolError("stream get: malformed handle key");
      }
      std::vector<BatchReply> replies = rt_.stream_ops({make_get(handle.tag)});
      const auto* get_resp = std::get_if<GetResponse>(&replies.front());
      if (get_resp == nullptr || !get_resp->found) {
        throw net::StoreUnavailableError("stream get: entry unavailable");
      }
      auto plain = mle::ResultCipher::decrypt_result(handle.tag, handle.key,
                                                     get_resp->entry.result_ct);
      if (!plain.has_value()) {
        throw net::StoreUnavailableError(
            "stream get: entry failed authentication");
      }
      Bytes out = std::move(*plain).release_for(
          secret::Purpose::of("stream_result_release"));
      if (out.size() != handle.total_bytes) {
        throw net::StoreUnavailableError("stream get: size mismatch");
      }
      return out;
    }

    case StreamHandle::Kind::kStream: {
      if (handle.key.size() != mle::kResultKeySize) {
        throw ProtocolError("stream get: malformed handle key");
      }
      std::vector<BatchReply> replies = rt_.stream_ops({make_get(handle.tag)});
      const auto* get_resp = std::get_if<GetResponse>(&replies.front());
      if (get_resp == nullptr || !get_resp->found) {
        throw net::StoreUnavailableError("stream get: manifest unavailable");
      }
      auto plain = mle::ResultCipher::decrypt_result(handle.tag, handle.key,
                                                     get_resp->entry.result_ct);
      if (!plain.has_value()) {
        throw net::StoreUnavailableError(
            "stream get: manifest failed authentication");
      }
      // The manifest plaintext holds chunk keys; it is parsed inside the
      // enclave and never leaves it.
      const chunk::Manifest manifest = chunk::decode_manifest(
          plain->reveal_for(secret::Purpose::of("stream_manifest_parse")));
      Bytes out = assemble(manifest);
      if (out.size() != handle.total_bytes) {
        throw net::StoreUnavailableError("stream get: size mismatch");
      }
      return out;
    }
  }
  throw ProtocolError("stream get: unknown handle kind");
}

Bytes StreamSession::assemble(const chunk::Manifest& manifest) {
  std::vector<std::size_t> refs;
  refs.reserve(manifest.entries.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const chunk::ManifestEntry& e = manifest.entries[i];
    if (!e.inlined) refs.push_back(i);
    total += e.inlined ? e.inline_bytes.size() : e.size;
  }
  if (total != manifest.total_bytes) {
    throw net::StoreUnavailableError("stream get: stream size mismatch");
  }

  // The stream grows entry by entry, in order: inline bytes are copied, and
  // a chunk opens straight into the bytes appended for it, once its
  // envelope has arrived with the size the manifest claims.
  Bytes out;
  out.reserve(total);
  std::size_t next = 0;  // the first entry not yet in `out`
  const auto append_inline_until = [&](std::size_t end) {
    for (; next < end; ++next) append(out, manifest.entries[next].inline_bytes);
  };
  for (std::size_t base = 0; base < refs.size(); base += config_.window) {
    const std::size_t end = std::min(base + config_.window, refs.size());
    std::vector<BatchOp> gets;
    gets.reserve(end - base);
    for (std::size_t j = base; j < end; ++j) {
      gets.emplace_back(make_get(manifest.entries[refs[j]].tag));
    }
    const std::vector<BatchReply> replies = rt_.stream_ops(std::move(gets));
    for (std::size_t j = base; j < end; ++j) {
      const std::size_t i = refs[j];
      const chunk::ManifestEntry& e = manifest.entries[i];
      const auto* get_resp = std::get_if<GetResponse>(&replies[j - base]);
      if (get_resp == nullptr || !get_resp->found) {
        throw net::StoreUnavailableError("stream get: chunk unavailable");
      }
      if (e.key.size() != mle::kResultKeySize) {
        throw SerializationError("stream get: malformed chunk key");
      }
      const ByteView ct = get_resp->entry.result_ct;
      if (ct.size() != crypto::gcm_envelope_size(e.size)) {
        throw net::StoreUnavailableError("stream get: chunk size mismatch");
      }
      append_inline_until(i);
      out.resize(out.size() + e.size);
      if (!mle::ResultCipher::decrypt_result_into(
              e.tag, e.key, ct, std::span(out).last(e.size))) {
        throw net::StoreUnavailableError(
            "stream get: chunk failed authentication");
      }
      next = i + 1;
    }
  }
  append_inline_until(manifest.entries.size());
  return out;
}

}  // namespace speed::runtime
