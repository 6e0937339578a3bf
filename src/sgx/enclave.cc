#include "sgx/enclave.h"

#include <cstring>

#include "crypto/gcm.h"
#include "crypto/hmac.h"

namespace speed::sgx {

namespace {

/// Process-wide transition counters. Enclaves come and go (per runtime, per
/// store), so totals live here rather than in any one instance; per-enclave
/// counts stay on the Enclave for the tests that assert them exactly.
struct TransitionMetrics {
  telemetry::Counter ecalls;
  telemetry::Counter ocalls;
  telemetry::Registry::Handle handle;
};

TransitionMetrics& transition_metrics() {
  // Heap-allocated and never freed: collectors must outlive any scrape that
  // could still run during static destruction.
  static TransitionMetrics* m = [] {
    auto* t = new TransitionMetrics;
    t->handle = telemetry::Registry::global().add_collector(
        [t](telemetry::SampleSink& sink) {
          constexpr auto kKind = telemetry::LabelKey::of("kind");
          sink.counter("speed_enclave_transitions_total",
                       "Simulated SGX world switches (EENTER / OCALL exits)",
                       {{kKind, telemetry::LabelValue::lit("ecall")}},
                       t->ecalls.value());
          sink.counter("speed_enclave_transitions_total",
                       "Simulated SGX world switches (EENTER / OCALL exits)",
                       {{kKind, telemetry::LabelValue::lit("ocall")}},
                       t->ocalls.value());
        });
    return t;
  }();
  return *m;
}

// Registered during static initialization: the first ECALL can happen under
// a transport lock, and taking the registry lock there would invert the
// lock-rank order (docs/LOCK_ORDER.md).
[[maybe_unused]] const TransitionMetrics& kEagerTransitionMetrics =
    transition_metrics();

}  // namespace

Platform::Platform(CostModel model)
    : model_(model),
      epc_(model_),
      hardware_key_(
          secret::Buffer::absorb(crypto::Drbg::system_bytes(32))) {
  register_telemetry();
}

Platform::Platform(CostModel model, ByteView stable_key_seed)
    : model_(model),
      epc_(model_),
      hardware_key_(secret::Buffer::absorb([&] {
        const auto digest = crypto::Sha256::digest(stable_key_seed);
        return Bytes(digest.begin(), digest.end());
      }())) {
  register_telemetry();
}

void Platform::register_telemetry() {
  telemetry_handle_ = telemetry::Registry::global().add_collector(
      [this](telemetry::SampleSink& sink) {
        sink.gauge("speed_epc_used_bytes",
                   "Trusted memory charged against the EPC (all platforms)", {},
                   static_cast<std::int64_t>(epc_.used_bytes()));
        sink.gauge("speed_epc_usable_bytes",
                   "EPC capacity before paging kicks in (all platforms)", {},
                   static_cast<std::int64_t>(epc_.usable_bytes()));
        sink.counter("speed_epc_swapped_pages_total",
                     "Simulated EPC page swaps (EWB/ELD round trips)", {},
                     epc_.swapped_pages());
      });
}

std::unique_ptr<Enclave> Platform::create_enclave(std::string identity) {
  return std::make_unique<Enclave>(*this, std::move(identity));
}

secret::Buffer Platform::seal_key_for(const Measurement& m) const {
  return crypto::derive_key(hardware_key_, "seal-key",
                            ByteView(m.data(), m.size()), 32);
}

secret::Buffer Platform::report_key_for(const Measurement& target) const {
  return crypto::derive_key(hardware_key_, "report-key",
                            ByteView(target.data(), target.size()), 32);
}

Enclave::Enclave(Platform& platform, std::string identity)
    : platform_(platform),
      identity_(std::move(identity)),
      measurement_(measure_identity(identity_)),
      seal_key_(platform.seal_key_for(measurement_)),
      drbg_() {
  // A freshly created enclave occupies a minimal trusted footprint (SECS,
  // TCS, initial heap); charge a token amount so EPC accounting reflects
  // enclave count.
  platform_.epc().allocate(kEpcPageSize * 16);
}

Enclave::~Enclave() { platform_.epc().release(kEpcPageSize * 16); }

void Enclave::begin_ecall() {
  ecalls_.fetch_add(1, std::memory_order_relaxed);
  transition_metrics().ecalls.inc();
  charge_wait(platform_.cost_model(), platform_.cost_model().ecall_ns);
}

void Enclave::end_ecall() {
  charge_wait(platform_.cost_model(), platform_.cost_model().ecall_ns);
}

void Enclave::begin_ocall() {
  ocalls_.fetch_add(1, std::memory_order_relaxed);
  transition_metrics().ocalls.inc();
  charge_wait(platform_.cost_model(), platform_.cost_model().ocall_ns);
}

void Enclave::end_ocall() {
  charge_wait(platform_.cost_model(), platform_.cost_model().ocall_ns);
}

Bytes Enclave::seal(ByteView aad, ByteView plaintext) {
  // Only the IV needs the DRBG; every random_bytes() caller shares its
  // lock, so the seal itself runs outside it.
  Bytes envelope(crypto::gcm_envelope_size(plaintext.size()));
  {
    MutexLock lock(drbg_mu_);
    drbg_.fill(std::span(envelope).first(crypto::kGcmIvSize));
  }
  crypto::gcm_encrypt_into(seal_key_, aad, plaintext, envelope);
  return envelope;
}

std::optional<Bytes> Enclave::unseal(ByteView aad, ByteView sealed) {
  return crypto::gcm_decrypt(seal_key_, aad, sealed);
}

secret::Buffer Enclave::derive_key(std::string_view label) const {
  return crypto::derive_key(seal_key_, label, {}, 16);
}

Report Enclave::create_report(const Measurement& target_measurement,
                              ByteView user_data) const {
  if (user_data.size() > 64) {
    throw EnclaveError("create_report: user_data exceeds 64 bytes");
  }
  Report r;
  r.source_measurement = measurement_;
  if (!user_data.empty()) {
    std::memcpy(r.user_data.data(), user_data.data(), user_data.size());
  }
  const secret::Buffer key = platform_.report_key_for(target_measurement);
  crypto::HmacSha256 mac(key);
  mac.update(ByteView(r.source_measurement.data(), r.source_measurement.size()));
  mac.update(ByteView(r.user_data.data(), r.user_data.size()));
  const auto digest = mac.finish();
  std::memcpy(r.mac.data(), digest.data(), digest.size());
  return r;
}

bool Enclave::verify_report(const Report& report) const {
  const secret::Buffer key = platform_.report_key_for(measurement_);
  crypto::HmacSha256 mac(key);
  mac.update(ByteView(report.source_measurement.data(),
                      report.source_measurement.size()));
  mac.update(ByteView(report.user_data.data(), report.user_data.size()));
  const auto digest = mac.finish();
  return ct_equal(ByteView(digest.data(), digest.size()),
                  ByteView(report.mac.data(), report.mac.size()));
}

Bytes Enclave::random_bytes(std::size_t n) {
  MutexLock lock(drbg_mu_);
  return drbg_.bytes(n);
}

}  // namespace speed::sgx
