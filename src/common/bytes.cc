#include "common/bytes.h"

#include <stdexcept>

namespace speed {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("hex_decode: invalid hex digit");
}
}  // namespace

std::string hex_encode(ByteView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

Bytes hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("hex_decode: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((hex_nibble(hex[i]) << 4) |
                                            hex_nibble(hex[i + 1])));
  }
  return out;
}

bool ct_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

void secure_zero(void* p, std::size_t n) {
  if (n == 0) return;  // memset's pointer must be valid even for n == 0
  std::memset(p, 0, n);
  // The empty asm may read anything `p` points to, so the memset is not a
  // dead store the optimizer could drop; unlike a volatile byte loop, the
  // wipe runs at memset speed on megabyte results.
  __asm__ __volatile__("" : : "r"(p) : "memory");
}

Bytes xor_bytes(ByteView a, ByteView b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("xor_bytes: length mismatch");
  }
  Bytes out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

}  // namespace speed
