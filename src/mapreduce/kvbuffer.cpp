#include "mapreduce/kvbuffer.hpp"

#include <cstring>

namespace papar::mr {

namespace {
constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);

std::uint32_t read_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
}  // namespace

void KvBuffer::add(std::string_view key, std::string_view value) {
  const auto klen = static_cast<std::uint32_t>(key.size());
  const auto vlen = static_cast<std::uint32_t>(value.size());
  const std::size_t old = bytes_.size();
  bytes_.resize(old + kHeader + key.size() + value.size());
  unsigned char* p = bytes_.data() + old;
  std::memcpy(p, &klen, sizeof(klen));
  std::memcpy(p + sizeof(klen), &vlen, sizeof(vlen));
  if (!key.empty()) std::memcpy(p + kHeader, key.data(), key.size());
  if (!value.empty()) std::memcpy(p + kHeader + key.size(), value.data(), value.size());
  ++count_;
}

void KvBuffer::append_page(const unsigned char* data, std::size_t n) {
  // Validate record framing while counting.
  std::size_t off = 0;
  std::size_t added = 0;
  while (off < n) {
    if (off + kHeader > n) throw DataError("truncated KV page header");
    const std::uint32_t klen = read_u32(data + off);
    const std::uint32_t vlen = read_u32(data + off + sizeof(std::uint32_t));
    off += kHeader + klen + vlen;
    if (off > n) throw DataError("truncated KV page record");
    ++added;
  }
  bytes_.insert(bytes_.end(), data, data + n);
  count_ += added;
}

std::vector<std::size_t> KvBuffer::offsets() const {
  std::vector<std::size_t> out;
  out.reserve(count_);
  std::size_t off = 0;
  while (off < bytes_.size()) {
    out.push_back(off);
    std::size_t next = 0;
    (void)at(off, &next);
    off = next;
  }
  return out;
}

void KvBuffer::reorder(const std::vector<std::size_t>& order) {
  PAPAR_CHECK_MSG(order.size() == count_, "reorder permutation size mismatch");
  std::vector<unsigned char> fresh;
  fresh.reserve(bytes_.size());
  for (std::size_t off : order) {
    std::size_t next = 0;
    (void)at(off, &next);
    fresh.insert(fresh.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(off),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(next));
  }
  bytes_ = std::move(fresh);
}

std::vector<unsigned char> KvBuffer::take_bytes() {
  count_ = 0;
  return std::move(bytes_);
}

void KvBuffer::adopt_bytes(std::vector<unsigned char> bytes) {
  bytes_ = std::move(bytes);
  count_ = 0;
  std::size_t off = 0;
  while (off < bytes_.size()) {
    std::size_t next = 0;
    (void)at(off, &next);
    off = next;
    ++count_;
  }
}

}  // namespace papar::mr
