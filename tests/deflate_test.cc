// Tests for the DEFLATE substrate: bit I/O, canonical Huffman, LZ77, and
// full compress/decompress round trips including golden fixed-Huffman
// bitstreams and adversarial decoder inputs.
#include <gtest/gtest.h>

#include "apps/deflate/bitio.h"
#include "apps/deflate/deflate.h"
#include "apps/deflate/huffman.h"
#include "apps/deflate/lz77.h"
#include "common/rng.h"

namespace speed::deflate {
namespace {

// ------------------------------------------------------------------ bit IO

TEST(BitIoTest, WriteReadRoundTrip) {
  BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0b11111111, 8);
  w.write_bits(0, 1);
  w.write_bits(0x1234, 16);
  const Bytes data = w.finish();

  BitReader r(data);
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(8), 0b11111111u);
  EXPECT_EQ(r.read_bits(1), 0u);
  EXPECT_EQ(r.read_bits(16), 0x1234u);
}

TEST(BitIoTest, AlignmentAndBytes) {
  BitWriter w;
  w.write_bits(1, 1);
  w.align_to_byte();
  w.write_byte(0xab);
  const Bytes data = w.finish();
  ASSERT_EQ(data.size(), 2u);

  BitReader r(data);
  EXPECT_EQ(r.read_bit(), 1u);
  r.align_to_byte();
  EXPECT_EQ(r.read_byte(), 0xab);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitIoTest, ReaderThrowsPastEnd) {
  const Bytes one = {0xff};
  BitReader r(one);
  r.read_bits(8);
  EXPECT_THROW(r.read_bit(), SerializationError);
}

TEST(BitIoTest, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b1, 1), 0b1u);
  EXPECT_EQ(reverse_bits(0b100, 3), 0b001u);
  EXPECT_EQ(reverse_bits(0b1010, 4), 0b0101u);
  EXPECT_EQ(reverse_bits(0x8000 >> 1, 15), 1u);
}

// ----------------------------------------------------------------- huffman

TEST(HuffmanTest, LengthsRespectKraftAndLimit) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(288);
    for (auto& f : freqs) f = rng.below(1000);
    const auto lengths = build_code_lengths(freqs);
    std::uint64_t kraft = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (freqs[i] > 0) {
        ASSERT_GE(lengths[i], 1) << "present symbol needs a code";
        ASSERT_LE(lengths[i], kMaxCodeBits);
        kraft += 1ull << (kMaxCodeBits - lengths[i]);
      } else {
        ASSERT_EQ(lengths[i], 0);
      }
    }
    EXPECT_LE(kraft, 1ull << kMaxCodeBits) << "Kraft inequality";
  }
}

TEST(HuffmanTest, SkewedFrequenciesHitTheLimit) {
  // Exponential frequencies would want depth > 15 without limiting.
  std::vector<std::uint64_t> freqs(30);
  std::uint64_t f = 1;
  for (auto& v : freqs) {
    v = f;
    f = f * 2 + 1;
  }
  const auto lengths = build_code_lengths(freqs);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_LE(lengths[i], kMaxCodeBits);
    EXPECT_GE(lengths[i], 1);
  }
}

TEST(HuffmanTest, SingleSymbolGetsOneBit) {
  std::vector<std::uint64_t> freqs(10, 0);
  freqs[4] = 99;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_EQ(lengths[4], 1);
}

TEST(HuffmanTest, EmptyAlphabetAllZero) {
  const auto lengths = build_code_lengths(std::vector<std::uint64_t>(5, 0));
  for (const auto l : lengths) EXPECT_EQ(l, 0);
}

TEST(HuffmanTest, CanonicalCodesArePrefixFree) {
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  const auto codes = assign_canonical_codes(lengths);
  // RFC 1951 worked example: lengths {3,3,3,3,3,2,4,4} ->
  // codes {010,011,100,101,110,00,1110,1111}.
  EXPECT_EQ(codes[5], 0b00u);
  EXPECT_EQ(codes[0], 0b010u);
  EXPECT_EQ(codes[6], 0b1110u);
  EXPECT_EQ(codes[7], 0b1111u);
}

TEST(HuffmanTest, EncodeDecodeAllSymbols) {
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> freqs(60);
  for (auto& f : freqs) f = 1 + rng.below(500);
  const auto lengths = build_code_lengths(freqs);
  const HuffmanEncoder enc(lengths);
  const HuffmanDecoder dec(lengths);

  std::vector<std::size_t> symbols;
  for (int i = 0; i < 2000; ++i) symbols.push_back(rng.below(60));

  BitWriter w;
  for (const auto s : symbols) enc.write_symbol(w, s);
  const Bytes data = w.finish();
  BitReader r(data);
  for (const auto s : symbols) {
    ASSERT_EQ(dec.read_symbol(r), s);
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribedCode) {
  const std::vector<std::uint8_t> bad = {1, 1, 1};  // three 1-bit codes
  EXPECT_THROW(HuffmanDecoder{bad}, SerializationError);
}

// -------------------------------------------------------------------- LZ77

TEST(Lz77Test, RoundTripStructuredData) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "the quick brown fox ";
  const Bytes data = to_bytes(text);
  const auto tokens = lz77_parse(data);
  EXPECT_EQ(lz77_reconstruct(tokens), data);
  EXPECT_LT(tokens.size(), data.size() / 4) << "repetitive text must match well";
}

TEST(Lz77Test, RoundTripRandomData) {
  Xoshiro256 rng(11);
  const Bytes data = rng.bytes(50000);
  EXPECT_EQ(lz77_reconstruct(lz77_parse(data)), data);
}

TEST(Lz77Test, OverlappingMatch) {
  // "aaaa..." forces distance-1 matches that overlap their own output.
  const Bytes data(1000, 'a');
  const auto tokens = lz77_parse(data);
  EXPECT_EQ(lz77_reconstruct(tokens), data);
  EXPECT_LE(tokens.size(), 8u);
}

TEST(Lz77Test, EmptyAndTinyInputs) {
  EXPECT_TRUE(lz77_parse({}).empty());
  const Bytes two = {1, 2};
  const auto tokens = lz77_parse(two);
  EXPECT_EQ(tokens.size(), 2u);
  EXPECT_EQ(lz77_reconstruct(tokens), two);
}

TEST(Lz77Test, MatchesNeverExceedWindow) {
  Xoshiro256 rng(13);
  Bytes data = rng.bytes(1000);
  Bytes tail = data;
  // Repeat the first KB 40 KB later: beyond the window, must not match it.
  data.resize(40000, 0x7e);
  append(data, tail);
  for (const Token& t : lz77_parse(data)) {
    if (t.distance != 0) {
      EXPECT_LE(t.distance, kWindowSize);
      EXPECT_GE(t.length, kMinMatch);
      EXPECT_LE(t.length, kMaxMatch);
    }
  }
}

// --------------------------------------------------------------- end-to-end

TEST(DeflateTest, EmptyInput) {
  const Bytes stream = compress({});
  EXPECT_EQ(decompress(stream), Bytes{});
}

TEST(DeflateTest, RoundTripText) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "SPEED accelerates enclave applications via secure deduplication. ";
  }
  const Bytes data = to_bytes(text);
  const Bytes stream = compress(data);
  EXPECT_EQ(decompress(stream), data);
  EXPECT_LT(stream.size(), data.size() / 5) << "repetitive text compresses well";
}

TEST(DeflateTest, RandomDataFallsBackGracefully) {
  Xoshiro256 rng(17);
  const Bytes data = rng.bytes(100000);
  const Bytes stream = compress(data);
  EXPECT_EQ(decompress(stream), data);
  EXPECT_LT(stream.size(), data.size() + data.size() / 64 + 128)
      << "incompressible data must not blow up (stored blocks)";
}

TEST(DeflateTest, AllByteValues) {
  Bytes data;
  for (int round = 0; round < 16; ++round) {
    for (int b = 0; b < 256; ++b) data.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_EQ(decompress(compress(data)), data);
}

TEST(DeflateTest, MultiBlockStreams) {
  Xoshiro256 rng(19);
  // Small block size forces multiple blocks with different types.
  DeflateOptions opts;
  opts.block_tokens = 100;
  std::string text;
  for (int i = 0; i < 300; ++i) text += "abcabcabc random filler ";
  Bytes data = to_bytes(text);
  append(data, rng.bytes(5000));
  const Bytes stream = compress(data, opts);
  EXPECT_EQ(decompress(stream), data);
}

TEST(DeflateTest, GoldenFixedHuffmanStream) {
  // Hand-assembled fixed-Huffman block: literals 'a' (0x61), 'b', EOB.
  // 'a'=97 -> 8-bit code 0x30+97-0 ... literals 0-143 are codes 00110000
  // through 10111111. 'a' = 0b00110000 + 97 = 0b10010001.
  BitWriter w;
  w.write_bits(1, 1);  // BFINAL
  w.write_bits(1, 2);  // fixed
  w.write_bits(reverse_bits(0b00110000 + 'a', 8), 8);
  w.write_bits(reverse_bits(0b00110000 + 'b', 8), 8);
  w.write_bits(0, 7);  // EOB = code 0 (7 bits)
  const Bytes stream = w.finish();
  EXPECT_EQ(decompress(stream), to_bytes("ab"));
}

TEST(DeflateTest, GoldenStoredBlock) {
  // 1 00 <pad> 0300 fcff 'x' 'y' 'z'
  const Bytes stream = {0x01, 0x03, 0x00, 0xfc, 0xff, 'x', 'y', 'z'};
  EXPECT_EQ(decompress(stream), to_bytes("xyz"));
}

TEST(DeflateTest, MalformedStreamsThrow) {
  EXPECT_THROW(decompress({}), SerializationError);
  const Bytes reserved_type = {0x07};  // BFINAL=1, BTYPE=11
  EXPECT_THROW(decompress(reserved_type), SerializationError);
  const Bytes bad_stored = {0x01, 0x03, 0x00, 0x00, 0x00, 'x', 'y', 'z'};
  EXPECT_THROW(decompress(bad_stored), SerializationError);

  // Truncations of a valid stream must throw, not crash.
  const Bytes good = compress(to_bytes("truncate me please truncate me"));
  for (std::size_t cut = 0; cut + 1 < good.size(); ++cut) {
    EXPECT_THROW(decompress(ByteView(good).first(cut)), SerializationError);
  }
}

TEST(DeflateTest, OutputLimitEnforced) {
  const Bytes data(100000, 'a');  // highly compressible bomb-style input
  const Bytes stream = compress(data);
  EXPECT_THROW(decompress(stream, 1000), SerializationError);
  EXPECT_EQ(decompress(stream, 100000).size(), 100000u);
}

// Property sweep: round trip across sizes and data shapes.
struct DeflateCase {
  const char* name;
  std::size_t size;
  int shape;  // 0 random, 1 text-ish, 2 zeros, 3 alternating
};

// Stable ctest names: gtest would otherwise print the struct's raw bytes,
// including the `name` pointer, which moves with every relink.
void PrintTo(const DeflateCase& c, std::ostream* os) {
  *os << "size " << c.size;
}

class DeflateSweep : public ::testing::TestWithParam<DeflateCase> {};

TEST_P(DeflateSweep, RoundTrips) {
  const auto& p = GetParam();
  Xoshiro256 rng(p.size + static_cast<std::size_t>(p.shape));
  Bytes data;
  switch (p.shape) {
    case 0: data = rng.bytes(p.size); break;
    case 1: data = to_bytes(rng.ascii(p.size)); break;
    case 2: data = Bytes(p.size, 0); break;
    default:
      data.resize(p.size);
      for (std::size_t i = 0; i < p.size; ++i) {
        data[i] = static_cast<std::uint8_t>(i % 7);
      }
  }
  EXPECT_EQ(decompress(compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DeflateSweep,
    ::testing::Values(DeflateCase{"tiny_random", 1, 0},
                      DeflateCase{"small_random", 100, 0},
                      DeflateCase{"mid_random", 10000, 0},
                      DeflateCase{"big_random", 300000, 0},
                      DeflateCase{"tiny_text", 10, 1},
                      DeflateCase{"mid_text", 20000, 1},
                      DeflateCase{"big_text", 250000, 1},
                      DeflateCase{"zeros", 65536, 2},
                      DeflateCase{"pattern", 70000, 3}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace speed::deflate
