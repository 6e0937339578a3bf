// Canonical binary encoding used everywhere SPEED hashes or ships bytes:
// computation tags, wire messages, sealed store snapshots, function inputs.
//
// Format: little-endian fixed-width integers; byte strings are u32
// length-prefixed. The encoding of a field sequence is injective (no two
// distinct field sequences encode to the same bytes), which is what makes
// Hash(func, m) collision-resistant at the *field* level as well as the byte
// level — "zlib"+"1.2.11" can never collide with "zli"+"b1.2.11".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/error.h"

namespace speed::serialize {

class Encoder {
 public:
  Encoder() = default;
  /// Append to `buffer`, whose bytes and capacity the encoder takes over;
  /// take() hands it back. A caller that keeps one buffer across messages
  /// (clearing it, or leaving a reserved header in it) encodes with no
  /// allocation once the buffer has grown to its largest message.
  explicit Encoder(Bytes buffer) : out_(std::move(buffer)) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u32 length-prefixed byte string.
  void var_bytes(ByteView data) {
    u32(static_cast<std::uint32_t>(data.size()));
    append(out_, data);
  }

  void str(std::string_view s) { var_bytes(as_bytes(s)); }

  /// Raw bytes without a length prefix (caller guarantees framing).
  void raw(ByteView data) { append(out_, data); }

  /// Reserve room for `n` bytes in total, so a caller that appends a known
  /// payload after the header never reallocates.
  void reserve(std::size_t n) { out_.reserve(n); }

  const Bytes& view() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  Bytes out_;
};

class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const ByteView b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const ByteView b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }

  std::uint64_t u64() {
    const ByteView b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw SerializationError("Decoder: invalid boolean");
    return v == 1;
  }

  Bytes var_bytes() {
    const ByteView b = var_view();
    return Bytes(b.begin(), b.end());
  }

  /// var_bytes() without the copy: a view into the decoder's input, valid
  /// as long as that input is.
  ByteView var_view() { return take(u32()); }

  std::string str() {
    const Bytes b = var_bytes();
    return std::string(b.begin(), b.end());
  }

  ByteView raw(std::size_t n) { return take(n); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

  /// Assert the message was fully consumed (catches trailing garbage).
  void expect_done() const {
    if (!done()) throw SerializationError("Decoder: trailing bytes in message");
  }

 private:
  ByteView take(std::size_t n) {
    if (remaining() < n) {
      throw SerializationError("Decoder: truncated input");
    }
    const ByteView out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace speed::serialize
