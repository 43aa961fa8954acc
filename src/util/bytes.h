// Byte-level serialization for packet payloads.
//
// ByteWriter appends fixed-width little-endian integers and IEEE-754
// doubles; ByteReader consumes them with explicit bounds checking (reads
// past the end return an error Status instead of crashing, because payload
// bytes may arrive corrupted off the simulated channel).

#ifndef IPDA_UTIL_BYTES_H_
#define IPDA_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace ipda::util {

using Bytes = std::vector<uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Starts the buffer with `headroom` zero bytes, room a later stage fills
  // in place (LinkCrypto::Seal writes its nonce there), and reserves
  // `body` bytes more: encoding an exactly sized message allocates once.
  ByteWriter(size_t headroom, size_t body);

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF64(double v);
  void WriteBytes(const Bytes& v);  // Length-prefixed (u32).
  void WriteString(const std::string& v);

  const Bytes& bytes() const { return out_; }
  Bytes TakeBytes() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  void Append(const void* data, size_t n);

  Bytes out_;
};

class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadF64();
  Result<Bytes> ReadBytes();        // Length-prefixed (u32).
  Result<std::string> ReadString();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  Status Take(void* dst, size_t n);

  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace ipda::util

#endif  // IPDA_UTIL_BYTES_H_
