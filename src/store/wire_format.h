// The store's on-disk checksum, plus the little-endian wire primitives
// (src/core/wire.h) its formats are written in: checkpoint sections
// (single_level_store.cc), Bε-tree section bodies, messages and nodes
// (msg.h, betree.cc).
#ifndef SRC_STORE_WIRE_FORMAT_H_
#define SRC_STORE_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "src/core/wire.h"

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

}  // namespace histar

#endif  // SRC_STORE_WIRE_FORMAT_H_
