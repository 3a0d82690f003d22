// Little-endian wire primitives shared by the store's on-disk formats:
// checkpoint sections (single_level_store.cc), Bε-tree section bodies,
// messages and nodes (msg.h, betree.cc). The kernel's
// blob serializer (kernel_persist.cc) keeps its own copy on purpose — the
// two formats are independent and must stay independently evolvable.
#ifndef SRC_STORE_WIRE_FORMAT_H_
#define SRC_STORE_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace histar {

// FNV-1a over bytes — the store's torn-write checksum (not cryptographic).
inline uint64_t StoreChecksum(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace storewire {

inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// Bounds-checked cursor over an untrusted byte image. Any overrun sets
// `fail` and returns zeros; callers check `fail` once at the end (or at
// natural validation points) instead of after every field.
struct Reader {
  const uint8_t* data;
  size_t len;
  size_t pos = 0;
  bool fail = false;

  uint8_t U8() {
    if (pos + 1 > len) {
      fail = true;
      return 0;
    }
    return data[pos++];
  }
  uint32_t U32() {
    if (pos + 4 > len) {
      fail = true;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (pos + 8 > len) {
      fail = true;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos + static_cast<size_t>(i)]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  bool Bytes(std::vector<uint8_t>* out, size_t n) {
    if (pos + n > len) {
      fail = true;
      return false;
    }
    out->assign(data + pos, data + pos + n);
    pos += n;
    return true;
  }
};

}  // namespace storewire
}  // namespace histar

#endif  // SRC_STORE_WIRE_FORMAT_H_
