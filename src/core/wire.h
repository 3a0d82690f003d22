// Little-endian wire primitives shared by every on-disk format: the
// kernel's object blobs (kernel_persist.cc) and the store's checkpoint
// sections, Bε-tree section bodies, messages and nodes (single_level_store.cc,
// msg.h, betree.cc). The formats themselves stay independent; only the
// integer encoding and the bounds-checked cursor are shared.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace histar {
namespace wire {

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

}  // namespace wire
}  // namespace histar

#endif  // SRC_CORE_WIRE_H_
