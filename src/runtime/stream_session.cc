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
using serialize::ProbeRequest;
using serialize::PutRequest;
using serialize::PutResponse;
using serialize::PutStatus;

namespace {

/// Recover the per-entry key from a whole-call entry and prove it decrypts
/// under the expected tag. Returns the key, or nullopt for a missing,
/// foreign, or poisoned entry (the GCM ⊥ of Fig. 3).
std::optional<secret::Buffer> adopt_entry(const mle::ComputationContext& ctx,
                                          const serialize::Tag& tag,
                                          const GetResponse& resp) {
  if (!resp.found || resp.entry.wrapped_key.size() != mle::kResultKeySize) {
    return std::nullopt;
  }
  secret::Buffer key = mle::ResultCipher::recover_key(
      ctx, resp.entry.challenge, resp.entry.wrapped_key);
  if (!mle::ResultCipher::decrypt_result(tag, key, resp.entry.result_ct)) {
    return std::nullopt;
  }
  return key;
}

/// True when a probe found an entry whose header passes the checked wrap
/// under `ctx`: whoever wrote it, it unwraps under this content.
bool header_checks(const mle::ComputationContext& ctx,
                   const GetResponse& resp) {
  return resp.found && mle::ResultCipher::recover_checked_key(
                           ctx, resp.entry.challenge, resp.entry.wrapped_key)
                           .has_value();
}

/// The key that opens a stream entry. `key` is unwrap material, which
/// recovers whichever writer's k the entry's checked wrap holds, or a pinned
/// mle::kResultKeySize key (a version 1 manifest's k_i, or a handle
/// serialized before unwrap material), used as it is. nullopt when the
/// entry's header fails the check.
std::optional<secret::Buffer> entry_key(const secret::Buffer& key,
                                        const serialize::EntryPayload& entry) {
  if (key.size() == mle::kResultKeySize) return key.clone();
  const auto ctx = mle::ComputationContext::from_unwrap_material(key);
  if (!ctx.has_value()) {
    throw ProtocolError("stream get: malformed unwrap material");
  }
  return mle::ResultCipher::recover_checked_key(*ctx, entry.challenge,
                                                entry.wrapped_key);
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

ProbeRequest StreamSession::make_probe(const serialize::Tag& tag) const {
  ProbeRequest probe;
  probe.tag = tag;
  probe.requester = rt_.enclave().measurement();
  return probe;
}

PutRequest StreamSession::make_put(const mle::ComputationContext& ctx,
                                   const serialize::Tag& tag, ByteView plain,
                                   crypto::Drbg& drbg) const {
  auto wk = mle::ResultCipher::generate_checked_key(ctx, drbg);
  PutRequest put;
  put.tag = tag;
  put.requester = rt_.enclave().measurement();
  put.entry.wrapped_key = std::move(wk.wrapped_key);
  put.entry.result_ct =
      mle::ResultCipher::encrypt_result(tag, wk.key, plain, drbg);
  put.entry.challenge = std::move(wk.challenge)
                            .release_for(secret::Purpose::of(
                                "rce_challenge_publish"));
  return put;  // k wipes itself: get() recovers it from the entry's header
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
  const chunk::ChunkPlan plan = chunk::ChunkPlan::build(fn_, data, chunker_);
  if (plan.whole_call()) return put_whole_call(plan, drbg);

  StreamHandle handle;
  handle.kind = StreamHandle::Kind::kStream;
  handle.tag = plan.stream_tag();
  handle.key = plan.stream_context().unwrap_material();
  handle.total_bytes = data.size();
  bool degraded = false;

  // Fast path: some client (maybe us) already stored a manifest for this
  // exact stream, and its header proves it opens under this content — one
  // probe dedups the whole put.
  bool stream_tag_taken = false;  // an entry failing the check squats on it
  {
    const std::vector<BatchReply> replies =
        rt_.batch_execute(serialize::batch_of(make_probe(plan.stream_tag())));
    const auto* resp = std::get_if<GetResponse>(&replies.front());
    if (resp != nullptr && resp->found) {
      if (header_checks(plan.stream_context(), *resp)) {
        rt_.metrics_.stream_whole_hits.inc();
        rt_.metrics_.stream_bytes_deduped.inc(data.size());
        return handle;
      }
      stream_tag_taken = true;
    }
    // An error reply here is not yet fatal: the chunk walk below will hit
    // the same failure per window and degrade chunk-by-chunk.
  }

  rt_.metrics_.stream_chunks.inc(plan.chunk_count());

  chunk::Manifest manifest;
  manifest.total_bytes = data.size();
  manifest.entries.resize(plan.chunk_count());

  // A chunk that cannot live in the store (PUT refused, foreign entry on
  // its tag, store down) rides inside the manifest instead; get() stays
  // correct.
  const auto inline_chunk = [&](std::size_t i) {
    chunk::ManifestEntry& e = manifest.entries[i];
    e.inlined = true;
    const ByteView bytes = plan.chunk_bytes(i);
    e.inline_bytes.assign(bytes.begin(), bytes.end());
    rt_.metrics_.stream_inline_chunks.inc();
  };
  // A referenced chunk records its unwrap material, which opens whichever
  // writer's entry get() is served — ours or a concurrent writer's.
  const auto ref_chunk = [&](std::size_t i) {
    chunk::ManifestEntry& e = manifest.entries[i];
    e.tag = plan.chunk_tag(i);
    e.size = static_cast<std::uint32_t>(plan.chunk(i).size);
    e.key = plan.chunk_context(i).unwrap_material();
  };
  // One batched probe frame for `chunks` (in cluster mode each chunk walks
  // its own tag's owners, one frame per node per round). A found chunk is
  // referenced if its header passes the check and inlined otherwise (first
  // write wins: a foreign entry cannot be replaced). Returns the misses.
  const auto probe_chunks = [&](const std::vector<std::size_t>& chunks) {
    std::vector<BatchOp> probes;
    probes.reserve(chunks.size());
    for (const std::size_t i : chunks) {
      probes.emplace_back(make_probe(plan.chunk_tag(i)));
    }
    const std::vector<BatchReply> replies =
        rt_.batch_execute(std::move(probes));
    std::vector<std::size_t> misses;
    for (std::size_t j = 0; j < chunks.size(); ++j) {
      const std::size_t i = chunks[j];
      const auto* resp = std::get_if<GetResponse>(&replies[j]);
      if (resp == nullptr) {
        degraded = true;
        inline_chunk(i);
      } else if (!resp->found) {
        misses.push_back(i);
      } else if (header_checks(plan.chunk_context(i), *resp)) {
        rt_.metrics_.stream_chunk_hits.inc();
        rt_.metrics_.stream_bytes_deduped.inc(plan.chunk(i).size);
        ref_chunk(i);
      } else {
        inline_chunk(i);
      }
    }
    return misses;
  };

  std::vector<std::size_t> window;
  for (std::size_t base = 0; base < plan.chunk_count();
       base += config_.window) {
    const std::size_t end =
        std::min(base + config_.window, plan.chunk_count());
    window.clear();
    for (std::size_t i = base; i < end; ++i) window.push_back(i);
    const std::vector<std::size_t> misses = probe_chunks(window);
    if (misses.empty()) continue;

    // One batched PUT frame for the window's misses. Synchronous by design:
    // put() returns only once every referenced chunk is durable, and a
    // refusal can still demote the chunk to inline.
    std::vector<BatchOp> puts;
    puts.reserve(misses.size());
    for (const std::size_t i : misses) {
      puts.emplace_back(make_put(plan.chunk_context(i), plan.chunk_tag(i),
                                 plan.chunk_bytes(i), drbg));
    }
    const std::vector<BatchReply> put_replies =
        rt_.batch_execute(std::move(puts));

    std::vector<std::size_t> raced;  // kAlreadyPresent: another writer won
    for (std::size_t j = 0; j < misses.size(); ++j) {
      const std::size_t i = misses[j];
      const auto* put_resp = std::get_if<PutResponse>(&put_replies[j]);
      if (put_resp == nullptr) {
        degraded = true;
        inline_chunk(i);
        continue;
      }
      rt_.metrics_.puts_sent.inc();
      if (put_resp->status == PutStatus::kStored) {
        ref_chunk(i);
      } else if (put_resp->status == PutStatus::kAlreadyPresent) {
        raced.push_back(i);
      } else {
        rt_.metrics_.puts_rejected.inc();
        inline_chunk(i);  // quota or policy refusal
      }
    }
    // The winner's entry is checked like any found chunk, header only; one
    // that has vanished again is inlined rather than re-put.
    if (!raced.empty()) {
      for (const std::size_t i : probe_chunks(raced)) inline_chunk(i);
    }
  }

  const Bytes manifest_plain = chunk::encode_manifest(manifest);
  rt_.metrics_.stream_manifest_bytes.record(manifest_plain.size());

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
    std::vector<BatchReply> replies =
        rt_.batch_execute(serialize::batch_of(make_put(
            plan.stream_context(), plan.stream_tag(), manifest_plain, drbg)));
    const auto* put_resp = std::get_if<PutResponse>(&replies.front());
    if (put_resp == nullptr) {
      degraded = true;
      inline_manifest();
    } else if (put_resp->status == PutStatus::kAlreadyPresent) {
      // Raced manifest writer: the handle's unwrap material opens theirs
      // (same stream) once its header passes the check.
      rt_.metrics_.puts_sent.inc();
      const std::vector<BatchReply> reprobe = rt_.batch_execute(
          serialize::batch_of(make_probe(plan.stream_tag())));
      const auto* resp = std::get_if<GetResponse>(&reprobe.front());
      if (resp == nullptr) degraded = true;
      if (resp == nullptr || !header_checks(plan.stream_context(), *resp)) {
        inline_manifest();
      }
    } else {
      rt_.metrics_.puts_sent.inc();
      if (put_resp->status != PutStatus::kStored) {
        rt_.metrics_.puts_rejected.inc();
        inline_manifest();
      }
    }
  }

  if (degraded) rt_.metrics_.stream_degraded.inc();
  return handle;
}

StreamHandle StreamSession::put_whole_call(const chunk::ChunkPlan& plan,
                                           crypto::Drbg& drbg) {
  // Single-chunk degrade: exactly the per-call protocol — whole-call domain
  // context, one GET, one plain PUT on a miss, no manifest. The wire frames
  // are the ones DedupRuntime::execute would produce for this input.
  const mle::ComputationContext& ctx = plan.stream_context();  // Domain::kCall
  const serialize::Tag& tag = plan.stream_tag();

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

  std::vector<BatchReply> replies =
      rt_.batch_execute(serialize::batch_of(make_get(tag)));
  const auto* get_resp = std::get_if<GetResponse>(&replies.front());
  if (get_resp == nullptr) {
    rt_.metrics_.stream_degraded.inc();
    inline_degrade();
    return handle;
  }
  if (get_resp->found) {
    auto key = adopt_entry(ctx, tag, *get_resp);
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
  std::vector<BatchReply> put_replies =
      rt_.batch_execute(serialize::batch_of(std::move(put)));
  const auto* put_resp = std::get_if<PutResponse>(&put_replies.front());
  if (put_resp == nullptr) {
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
    std::vector<BatchReply> reget =
        rt_.batch_execute(serialize::batch_of(make_get(tag)));
    const auto* reget_resp = std::get_if<GetResponse>(&reget.front());
    std::optional<secret::Buffer> key;
    if (reget_resp != nullptr) {
      key = adopt_entry(ctx, tag, *reget_resp);
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
      std::vector<BatchReply> replies =
          rt_.batch_execute(serialize::batch_of(make_get(handle.tag)));
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
      std::vector<BatchReply> replies =
          rt_.batch_execute(serialize::batch_of(make_get(handle.tag)));
      const auto* get_resp = std::get_if<GetResponse>(&replies.front());
      if (get_resp == nullptr || !get_resp->found) {
        throw net::StoreUnavailableError("stream get: manifest unavailable");
      }
      // Whichever writer's manifest a replica serves opens under the
      // stream's unwrap material.
      const auto key = entry_key(handle.key, get_resp->entry);
      std::optional<secret::Buffer> plain;
      if (key.has_value()) {
        plain = mle::ResultCipher::decrypt_result(handle.tag, *key,
                                                  get_resp->entry.result_ct);
      }
      if (!plain.has_value()) {
        throw net::StoreUnavailableError(
            "stream get: manifest failed authentication");
      }
      // The manifest plaintext holds every chunk's unwrap material; it is
      // parsed inside the enclave and never leaves it.
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
  // envelope has arrived with the size the manifest claims and its header
  // has yielded its key.
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
    const std::vector<BatchReply> replies =
        rt_.batch_execute(std::move(gets));
    for (std::size_t j = base; j < end; ++j) {
      const std::size_t i = refs[j];
      const chunk::ManifestEntry& e = manifest.entries[i];
      const auto* get_resp = std::get_if<GetResponse>(&replies[j - base]);
      if (get_resp == nullptr || !get_resp->found) {
        throw net::StoreUnavailableError("stream get: chunk unavailable");
      }
      const ByteView ct = get_resp->entry.result_ct;
      if (ct.size() != crypto::gcm_envelope_size(e.size)) {
        throw net::StoreUnavailableError("stream get: chunk size mismatch");
      }
      const auto key = entry_key(e.key, get_resp->entry);
      append_inline_until(i);
      out.resize(out.size() + e.size);
      if (!key.has_value() ||
          !mle::ResultCipher::decrypt_result_into(
              e.tag, *key, ct, std::span(out).last(e.size))) {
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
