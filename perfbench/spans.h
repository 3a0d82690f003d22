// In-memory spans for the traced run.
//
// The benchmark wraps each call it makes into a layer (unixlib fs/proc, the
// kernel, the store) in a Span: name, start, end, parent span and op id. Each
// thread keeps its own open-span stack and record buffer, so recording takes
// no lock. A span's self time is its duration minus the time its child spans
// cover. Spans cost one relaxed load when tracing is off, which is how the
// untraced end-to-end runs execute the same code.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::spans {

void SetEnabled(bool on);

// Marks the calling thread as the driver (tid 0 in the trace file; its
// spans make up the coverage share of wall time).
void MarkDriverThread();

class Span {
 public:
  // `op` names the operation the span belongs to; 0 inherits the parent's.
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

struct NameStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t driver_self_ns = 0;  // self time on the driver thread only
};

// The layer a span name belongs to: "fs.*" and "proc.*" → unixlib,
// "kernel.*" → kernel, "store.*" → store, anything else → bench.
std::string LayerOf(const std::string& name);

// Per-name statistics of every span closed since the last ResetStats,
// merged over all threads. Call only while no other thread records.
std::map<std::string, NameStats> Collect();
void ResetStats();

// Writes every kept span record as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path, uint64_t* written);

}  // namespace perfbench::spans

#endif  // PERFBENCH_SPANS_H_
