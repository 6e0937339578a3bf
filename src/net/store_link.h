// Client end of one attested store connection (docs/PROTOCOL.md §6).
//
// A StoreLink holds a Transport and the SecureChannel keyed by that
// connection's attested handshake. round_trip() seals the request inside
// the enclave, ships the frame through one OCALL, and opens the reply, all
// under the link's strand: the channel's sequence numbers admit no
// interleaving. It is the only client code that seals or opens a store
// frame. ClusterTransport holds one per node; a single store is its one
// node.
//
// Buffers. The link keeps one frame buffer and one plaintext buffer under
// the strand. A request is encoded straight after the frame header and
// sealed in place; the reply is opened into the plaintext buffer and decoded
// from a view of it. Both live inside the enclave and grow to the largest
// frame the link has carried, so a round trip allocates only the reply the
// transport receives and what the decoded message owns.
//
// Failure rule. A transport error, or a reply that fails the channel check,
// poisons the link: the client cannot know which sequence numbers the store
// consumed, so the key never wraps another frame. The next round_trip()
// asks the transport to recover() once (a ResilientTransport re-dials,
// re-runs the attested handshake and stages the fresh key through the rekey
// callback) and installs the staged key before it wraps; with no key staged
// it throws StoreUnavailableError. The link never retries a frame itself;
// the ClusterTransport walk decides whether to call it again.
#pragma once

#include <memory>
#include <optional>

#include "common/annotated_lock.h"
#include "common/secret.h"
#include "net/resilient.h"
#include "net/secure_channel.h"
#include "serialize/wire.h"
#include "sgx/enclave.h"

namespace speed::net {

class StoreLink {
 public:
  /// A link over `initial`. When `initial.transport` is null the link starts
  /// undialed: its first round_trip() makes one `dial` attempt inside one
  /// OCALL, and a failed attempt leaves it undialed for the next call. The
  /// link uses whatever transport it is given or dialed; it adds no
  /// reconnect layer. Throws ProtocolError when given neither a transport
  /// nor a dial.
  StoreLink(sgx::Enclave& enclave, ResilientTransport::Connection initial,
            ResilientTransport::ReconnectFn dial = {});

  StoreLink(const StoreLink&) = delete;
  StoreLink& operator=(const StoreLink&) = delete;

  /// One request/response over the attested channel. Must be called from
  /// inside `enclave`. Throws whatever the dial or transport throws,
  /// ProtocolError when the reply fails the channel check, and
  /// StoreUnavailableError when the link is poisoned and cannot rekey.
  serialize::Message round_trip(const serialize::Message& request);

  /// Bytes the link keeps between round trips: its request frame and reply
  /// plaintext buffers.
  std::size_t kept_bytes() const {
    MutexLock lock(mu_);
    return frame_.capacity() + plain_.capacity();
  }

 private:
  /// Adopt a dialed connection: its transport, a fresh channel under its
  /// session key, and the rekey callback that stages later keys.
  void install_locked(ResilientTransport::Connection conn) REQUIRES(mu_);
  /// Swap in a channel under the key the transport staged, if any.
  void install_rekey_locked() REQUIRES(mu_);

  sgx::Enclave& enclave_;
  const ResilientTransport::ReconnectFn dial_;

  /// The strand: held across wrap -> OCALL -> unwrap, and across the
  /// recover() or dial OCALL that precedes them.
  mutable Mutex mu_{LockRank::kRuntimeChannel};
  std::unique_ptr<Transport> transport_ GUARDED_BY(mu_);  ///< null until dialed
  std::optional<SecureChannel> channel_ GUARDED_BY(mu_);
  bool poisoned_ GUARDED_BY(mu_) = false;
  Bytes frame_ GUARDED_BY(mu_);  ///< header ‖ request, sealed in place
  Bytes plain_ GUARDED_BY(mu_);  ///< the last reply's plaintext (a prefix)

  /// Key staged by the transport's rekey callback. Own lock: the callback
  /// fires inside recover(), while this thread already holds mu_.
  Mutex rekey_mu_{LockRank::kRekeyStaging};
  std::optional<secret::Buffer> pending_rekey_ GUARDED_BY(rekey_mu_);
};

}  // namespace speed::net
