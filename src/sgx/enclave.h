// Simulated SGX platform and enclaves.
//
// A Platform models one SGX-capable machine: it owns the hardware root key,
// the shared Enclave Page Cache, and the cost model. Enclaves are created
// from it and provide the SGX primitives SPEED relies on:
//
//   * ECALL/OCALL transition accounting (with simulated latency),
//   * trusted-memory accounting against the shared EPC,
//   * sealing (AES-GCM-256 under a measurement-bound key), and labelled
//     keys derived under the same policy (EGETKEY),
//   * local attestation reports (HMAC bound to the target's measurement).
//
// The isolation boundary is enforced by API discipline rather than hardware:
// code that wants to be "inside" an enclave runs under ecall()/EnclaveScope,
// and trusted state charges the EPC. Functionally the security properties
// (sealed data unreadable off-platform, reports unforgeable without the
// platform key, measurements binding code identity) hold against the
// simulated adversary, which is what the SPEED protocol tests exercise.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/annotated_lock.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/secret.h"
#include "crypto/drbg.h"
#include "sgx/cost_model.h"
#include "sgx/epc.h"
#include "sgx/measurement.h"
#include "telemetry/registry.h"

namespace speed::sgx {

class Enclave;

/// Local attestation report (EREPORT analogue): proves to a *target* enclave
/// on the same platform that `source` with `source_measurement` produced
/// `user_data`. The MAC is keyed to the target's measurement, so only the
/// target (via its platform) can verify it — and nothing off-platform can.
struct Report {
  Measurement source_measurement{};
  std::array<std::uint8_t, 64> user_data{};
  std::array<std::uint8_t, 32> mac{};
};

class Platform {
 public:
  explicit Platform(CostModel model = CostModel{});

  /// Like the default constructor, but the hardware root key is derived
  /// deterministically from `stable_key_seed` instead of fresh randomness.
  /// This models the *same physical machine* across simulated process
  /// restarts: data sealed before a restart (the ResultStore's metadata WAL,
  /// sealed snapshots) stays unsealable after it — on real SGX the fused
  /// hardware key provides this for free. The seed is hashed into the key,
  /// never stored.
  Platform(CostModel model, ByteView stable_key_seed);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const CostModel& cost_model() const { return model_; }
  EpcAllocator& epc() { return epc_; }

  /// Create an enclave whose measurement derives from `identity`.
  std::unique_ptr<Enclave> create_enclave(std::string identity);

  /// Hardware-derived keys; private to the platform (enclaves reach them
  /// through their own seal()/report APIs, the untrusted world cannot).
  /// Returned in the secret domain — they never cross the trusted boundary.
  secret::Buffer seal_key_for(const Measurement& m) const;
  secret::Buffer report_key_for(const Measurement& target) const;

 private:
  void register_telemetry();

  CostModel model_;
  EpcAllocator epc_;
  secret::Buffer hardware_key_;
  // Declared after epc_: deregistration must precede the allocator's death.
  telemetry::Registry::Handle telemetry_handle_;
};

class Enclave {
 public:
  Enclave(Platform& platform, std::string identity);
  ~Enclave();

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  Platform& platform() { return platform_; }
  const std::string& identity() const { return identity_; }
  const Measurement& measurement() const { return measurement_; }

  // ------------------------------------------------------------ Transitions

  /// Host -> enclave call: charges EENTER on the way in and EEXIT on the way
  /// out, runs `f` "inside" the enclave.
  template <typename F>
  decltype(auto) ecall(F&& f) {
    begin_ecall();
    struct Exit {
      Enclave* e;
      ~Exit() { e->end_ecall(); }
    } exit_guard{this};
    return std::forward<F>(f)();
  }

  /// Enclave -> host call: charges the exit and the re-entry, runs `f`
  /// "outside".
  template <typename F>
  decltype(auto) ocall(F&& f) {
    begin_ocall();
    struct Exit {
      Enclave* e;
      ~Exit() { e->end_ocall(); }
    } exit_guard{this};
    return std::forward<F>(f)();
  }

  std::uint64_t ecall_count() const { return ecalls_.load(); }
  std::uint64_t ocall_count() const { return ocalls_.load(); }

  // --------------------------------------------------------------- Sealing

  /// Seal `plaintext` to this enclave's measurement (MRENCLAVE policy):
  /// only an enclave with the same measurement on the same platform unseals.
  Bytes seal(ByteView aad, ByteView plaintext);
  std::optional<Bytes> unseal(ByteView aad, ByteView sealed);

  /// A 16-byte key for `label`, derived from the sealing key (the EGETKEY
  /// counterpart of seal()). Same policy: every enclave with this
  /// measurement on this platform derives the same key, and so does one on
  /// a Platform rebuilt from the same stable_key_seed after a restart.
  secret::Buffer derive_key(std::string_view label) const;

  // ----------------------------------------------------------- Attestation

  /// Produce a report for `target_measurement` carrying up to 64 bytes of
  /// `user_data` (longer inputs are rejected).
  Report create_report(const Measurement& target_measurement,
                       ByteView user_data) const;

  /// Verify a report addressed to *this* enclave.
  bool verify_report(const Report& report) const;

  // -------------------------------------------------------- Trusted memory

  /// Adjust this enclave's trusted-heap charge; paging costs apply once the
  /// platform EPC is over-committed.
  void charge_trusted(std::uint64_t bytes) { platform_.epc().allocate(bytes); }
  void release_trusted(std::uint64_t bytes) { platform_.epc().release(bytes); }

  /// Trusted randomness (sgx_read_rand analogue). Thread-safe.
  Bytes random_bytes(std::size_t n);

 private:
  void begin_ecall();
  void end_ecall();
  void begin_ocall();
  void end_ocall();

  Platform& platform_;
  std::string identity_;
  Measurement measurement_;
  secret::Buffer seal_key_;

  std::atomic<std::uint64_t> ecalls_{0};
  std::atomic<std::uint64_t> ocalls_{0};

  Mutex drbg_mu_{LockRank::kCryptoDrbg};  // leaf: drawn from any context
  crypto::Drbg drbg_ GUARDED_BY(drbg_mu_);
};

/// RAII trusted-memory charge for containers living in enclave memory.
class TrustedCharge {
 public:
  TrustedCharge(Enclave& enclave, std::uint64_t bytes = 0)
      : enclave_(&enclave), bytes_(bytes) {
    if (bytes_ > 0) enclave_->charge_trusted(bytes_);
  }
  ~TrustedCharge() {
    if (bytes_ > 0) enclave_->release_trusted(bytes_);
  }

  TrustedCharge(const TrustedCharge&) = delete;
  TrustedCharge& operator=(const TrustedCharge&) = delete;

  /// Re-account to a new size (e.g. after a dictionary grows).
  void resize(std::uint64_t bytes) {
    if (bytes > bytes_) {
      enclave_->charge_trusted(bytes - bytes_);
    } else if (bytes < bytes_) {
      enclave_->release_trusted(bytes_ - bytes);
    }
    bytes_ = bytes;
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  Enclave* enclave_;
  std::uint64_t bytes_;
};

}  // namespace speed::sgx
