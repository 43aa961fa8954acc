#include "util/bytes.h"

#include <cstring>

namespace ipda::util {

ByteWriter::ByteWriter(size_t headroom, size_t body) {
  out_.reserve(headroom + body);
  out_.resize(headroom);
}

void ByteWriter::Append(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  out_.insert(out_.end(), p, p + n);
}

void ByteWriter::WriteU8(uint8_t v) { out_.push_back(v); }

void ByteWriter::WriteU16(uint16_t v) {
  uint8_t buf[2] = {static_cast<uint8_t>(v), static_cast<uint8_t>(v >> 8)};
  Append(buf, sizeof(buf));
}

void ByteWriter::WriteU32(uint32_t v) {
  uint8_t buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  Append(buf, sizeof(buf));
}

void ByteWriter::WriteU64(uint64_t v) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<uint8_t>(v >> (8 * i));
  Append(buf, sizeof(buf));
}

void ByteWriter::WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

void ByteWriter::WriteF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteBytes(const Bytes& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  Append(v.data(), v.size());
}

void ByteWriter::WriteString(const std::string& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  Append(v.data(), v.size());
}

Status ByteReader::Take(void* dst, size_t n) {
  if (remaining() < n) {
    return OutOfRangeError("byte reader underflow");
  }
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return OkStatus();
}

Result<uint8_t> ByteReader::ReadU8() {
  uint8_t v = 0;
  IPDA_RETURN_IF_ERROR(Take(&v, sizeof(v)));
  return v;
}

Result<uint16_t> ByteReader::ReadU16() {
  uint8_t buf[2];
  IPDA_RETURN_IF_ERROR(Take(buf, sizeof(buf)));
  return static_cast<uint16_t>(buf[0] | (buf[1] << 8));
}

Result<uint32_t> ByteReader::ReadU32() {
  uint8_t buf[4];
  IPDA_RETURN_IF_ERROR(Take(buf, sizeof(buf)));
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  uint8_t buf[8];
  IPDA_RETURN_IF_ERROR(Take(buf, sizeof(buf)));
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | buf[i];
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  IPDA_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::ReadF64() {
  IPDA_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<Bytes> ByteReader::ReadBytes() {
  IPDA_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  if (remaining() < n) return OutOfRangeError("byte reader underflow");
  Bytes out(data_.begin() + static_cast<long>(pos_),
            data_.begin() + static_cast<long>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  IPDA_ASSIGN_OR_RETURN(Bytes b, ReadBytes());
  return std::string(b.begin(), b.end());
}

}  // namespace ipda::util
