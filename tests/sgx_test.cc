// Tests for the simulated SGX runtime: measurements, transitions, EPC
// accounting, sealing, local attestation, and the trusted-library registry.
#include <gtest/gtest.h>

#include "crypto/gcm.h"
#include "sgx/enclave.h"
#include "sgx/trusted_library.h"

namespace speed::sgx {
namespace {

CostModel fast_model() {
  CostModel m;
  m.ecall_ns = 0;
  m.ocall_ns = 0;
  m.epc_page_swap_ns = 0;
  return m;
}

TEST(MeasurementTest, DeterministicAndDistinct) {
  EXPECT_EQ(measure_identity("app-a"), measure_identity("app-a"));
  EXPECT_NE(measure_identity("app-a"), measure_identity("app-b"));
  EXPECT_NE(measure_identity("app"), measure_library("app", "", {}));
}

TEST(MeasurementTest, LibraryMeasurementBindsCode) {
  const Bytes code_a = to_bytes("code-bytes-a");
  const Bytes code_b = to_bytes("code-bytes-b");
  EXPECT_EQ(measure_library("zlib", "1.2.11", code_a),
            measure_library("zlib", "1.2.11", code_a));
  EXPECT_NE(measure_library("zlib", "1.2.11", code_a),
            measure_library("zlib", "1.2.11", code_b));
  EXPECT_NE(measure_library("zlib", "1.2.11", code_a),
            measure_library("zlib", "1.2.12", code_a));
}

TEST(EnclaveTest, MeasurementMatchesIdentity) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("my-app");
  EXPECT_EQ(enclave->measurement(), measure_identity("my-app"));
  EXPECT_EQ(enclave->identity(), "my-app");
}

TEST(EnclaveTest, SameIdentitySameMeasurementAcrossPlatforms) {
  Platform p1(fast_model()), p2(fast_model());
  auto e1 = p1.create_enclave("app");
  auto e2 = p2.create_enclave("app");
  EXPECT_EQ(e1->measurement(), e2->measurement());
}

TEST(EnclaveTest, EcallOcallCountingAndReturnValues) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("counter");
  const int x = enclave->ecall([] { return 41; }) + 1;
  EXPECT_EQ(x, 42);
  enclave->ecall([&] {
    enclave->ocall([] {});
    enclave->ocall([] {});
  });
  EXPECT_EQ(enclave->ecall_count(), 2u);
  EXPECT_EQ(enclave->ocall_count(), 2u);
}

TEST(EnclaveTest, TransitionCostIsCharged) {
  CostModel model;
  model.ecall_ns = 200000;  // 0.2 ms one-way, measurable
  model.ocall_ns = 0;
  Platform platform(model);
  auto enclave = platform.create_enclave("timed");
  Stopwatch sw;
  enclave->ecall([] {});
  EXPECT_GE(sw.elapsed_ns(), 350000u) << "EENTER+EEXIT should cost ~0.4ms";
}

TEST(EnclaveTest, DisabledCostModelChargesNothing) {
  Platform platform{CostModel::disabled()};
  auto enclave = platform.create_enclave("free");
  Stopwatch sw;
  for (int i = 0; i < 1000; ++i) enclave->ecall([] {});
  EXPECT_LT(sw.elapsed_ms(), 50.0);
}

TEST(EnclaveTest, ExceptionsPropagateAndStillExit) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("thrower");
  EXPECT_THROW(enclave->ecall([]() -> int { throw Error("inside"); }), Error);
  // A further ecall still works (the transition guard unwound correctly).
  EXPECT_EQ(enclave->ecall([] { return 7; }), 7);
  EXPECT_EQ(enclave->ecall_count(), 2u);
}

TEST(SealTest, RoundTripSameEnclave) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("sealer");
  const Bytes secret = to_bytes("enclave secret state");
  const Bytes sealed = enclave->seal(as_bytes("aad"), secret);
  const auto opened = enclave->unseal(as_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, secret);
}

TEST(SealTest, SameMeasurementSamePlatformCanUnseal) {
  Platform platform(fast_model());
  auto e1 = platform.create_enclave("twin");
  auto e2 = platform.create_enclave("twin");
  const Bytes sealed = e1->seal({}, to_bytes("shared"));
  const auto opened = e2->unseal({}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, to_bytes("shared"));
}

TEST(SealTest, DifferentMeasurementCannotUnseal) {
  Platform platform(fast_model());
  auto e1 = platform.create_enclave("app-a");
  auto e2 = platform.create_enclave("app-b");
  const Bytes sealed = e1->seal({}, to_bytes("private"));
  EXPECT_FALSE(e2->unseal({}, sealed).has_value());
}

TEST(SealTest, DifferentPlatformCannotUnseal) {
  Platform p1(fast_model()), p2(fast_model());
  auto e1 = p1.create_enclave("app");
  auto e2 = p2.create_enclave("app");
  const Bytes sealed = e1->seal({}, to_bytes("machine-bound"));
  EXPECT_FALSE(e2->unseal({}, sealed).has_value());
}

TEST(SealTest, TamperedSealedBlobRejected) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("sealer");
  Bytes sealed = enclave->seal({}, to_bytes("data"));
  sealed[sealed.size() - 1] ^= 1;
  EXPECT_FALSE(enclave->unseal({}, sealed).has_value());
}

/// Stands in for a derived key without revealing it: the GMAC tag the key
/// produces over fixed data under a fixed IV.
Bytes derived_key_tag(const Enclave& enclave, std::string_view label) {
  const crypto::AesGcm gcm(enclave.derive_key(label));
  return gcm.seal(Bytes(crypto::kGcmIvSize, 0), as_bytes("fixed data"), {});
}

TEST(SealTest, DerivedKeyFollowsTheSealPolicy) {
  const Bytes seed = to_bytes("machine-7");
  Platform platform(fast_model(), seed);
  auto store = platform.create_enclave("store");
  const Bytes tag = derived_key_tag(*store, "blob-mac");

  // Same label: one key for every enclave of the identity on the platform,
  // and again after a restart (a Platform rebuilt from the same seed).
  EXPECT_EQ(derived_key_tag(*platform.create_enclave("store"), "blob-mac"),
            tag);
  Platform restarted(fast_model(), seed);
  EXPECT_EQ(derived_key_tag(*restarted.create_enclave("store"), "blob-mac"),
            tag);

  // A different label, identity or platform seed gives a different key.
  EXPECT_NE(derived_key_tag(*store, "other-label"), tag);
  EXPECT_NE(derived_key_tag(*platform.create_enclave("other"), "blob-mac"),
            tag);
  Platform other_machine(fast_model(), to_bytes("machine-8"));
  EXPECT_NE(
      derived_key_tag(*other_machine.create_enclave("store"), "blob-mac"),
      tag);
}

TEST(ReportTest, TargetVerifiesGenuineReport) {
  Platform platform(fast_model());
  auto source = platform.create_enclave("source-app");
  auto target = platform.create_enclave("store");
  const Bytes data = to_bytes("session-key-material");
  const Report r = source->create_report(target->measurement(), data);
  EXPECT_TRUE(target->verify_report(r));
  EXPECT_EQ(r.source_measurement, source->measurement());
}

TEST(ReportTest, WrongTargetCannotVerify) {
  Platform platform(fast_model());
  auto source = platform.create_enclave("source-app");
  auto target = platform.create_enclave("store");
  auto bystander = platform.create_enclave("other");
  const Report r = source->create_report(target->measurement(), {});
  EXPECT_FALSE(bystander->verify_report(r));
}

TEST(ReportTest, CrossPlatformReportRejected) {
  Platform p1(fast_model()), p2(fast_model());
  auto source = p1.create_enclave("app");
  auto target1 = p1.create_enclave("store");
  auto target2 = p2.create_enclave("store");
  const Report r = source->create_report(target1->measurement(), {});
  EXPECT_TRUE(target1->verify_report(r));
  EXPECT_FALSE(target2->verify_report(r)) << "reports are platform-local";
}

TEST(ReportTest, ForgedFieldsRejected) {
  Platform platform(fast_model());
  auto source = platform.create_enclave("app");
  auto target = platform.create_enclave("store");
  Report r = source->create_report(target->measurement(), to_bytes("data"));
  Report forged_meas = r;
  forged_meas.source_measurement[0] ^= 1;
  EXPECT_FALSE(target->verify_report(forged_meas));
  Report forged_data = r;
  forged_data.user_data[3] ^= 1;
  EXPECT_FALSE(target->verify_report(forged_data));
}

TEST(ReportTest, OversizedUserDataThrows) {
  Platform platform(fast_model());
  auto source = platform.create_enclave("app");
  const Bytes too_big(65, 0xaa);
  EXPECT_THROW(source->create_report(measure_identity("x"), too_big),
               EnclaveError);
}

TEST(EpcTest, TracksUsage) {
  CostModel model = fast_model();
  Platform platform(model);
  const std::uint64_t base = platform.epc().used_bytes();
  platform.epc().allocate(1 << 20);
  EXPECT_EQ(platform.epc().used_bytes(), base + (1 << 20));
  platform.epc().release(1 << 20);
  EXPECT_EQ(platform.epc().used_bytes(), base);
}

TEST(EpcTest, OverflowChargesPaging) {
  CostModel model;
  model.ecall_ns = 0;
  model.ocall_ns = 0;
  model.epc_usable_bytes = 1 << 20;  // 1 MB usable
  model.epc_page_swap_ns = 0;        // count pages, don't sleep
  Platform platform(model);
  platform.epc().allocate(2 << 20);  // 2 MB: 1 MB over
  EXPECT_GE(platform.epc().swapped_pages(), (1u << 20) / kEpcPageSize);
}

TEST(EpcTest, ReleaseNeverUnderflows) {
  Platform platform(fast_model());
  platform.epc().release(1 << 30);
  EXPECT_LT(platform.epc().used_bytes(), 1u << 30);
}

TEST(TrustedChargeTest, RaiiAccounting) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("raii");
  const std::uint64_t base = platform.epc().used_bytes();
  {
    TrustedCharge charge(*enclave, 4096);
    EXPECT_EQ(platform.epc().used_bytes(), base + 4096);
    charge.resize(8192);
    EXPECT_EQ(platform.epc().used_bytes(), base + 8192);
    charge.resize(1024);
    EXPECT_EQ(platform.epc().used_bytes(), base + 1024);
  }
  EXPECT_EQ(platform.epc().used_bytes(), base);
}

TEST(TrustedLibraryTest, LookupAfterRegister) {
  TrustedLibraryRegistry reg;
  EXPECT_FALSE(reg.lookup("zlib", "1.2.11").has_value());
  reg.register_library("zlib", "1.2.11", as_bytes("deflate code"));
  const auto m = reg.lookup("zlib", "1.2.11");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(*m, measure_library("zlib", "1.2.11", as_bytes("deflate code")));
  EXPECT_FALSE(reg.lookup("zlib", "1.2.12").has_value());
  EXPECT_EQ(reg.size(), 1u);
}

TEST(TrustedLibraryTest, FamilyVersionCannotCollide) {
  TrustedLibraryRegistry reg;
  reg.register_library("ab", "c", as_bytes("x"));
  EXPECT_FALSE(reg.lookup("a", "bc").has_value());
}

TEST(EnclaveTest, RandomBytesDiffer) {
  Platform platform(fast_model());
  auto enclave = platform.create_enclave("rng");
  EXPECT_NE(enclave->random_bytes(32), enclave->random_bytes(32));
  EXPECT_EQ(enclave->random_bytes(17).size(), 17u);
}

}  // namespace
}  // namespace speed::sgx
