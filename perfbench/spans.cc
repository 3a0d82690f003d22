#include "perfbench/spans.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench::spans {
namespace {

// Records kept for the trace file, over all threads. Statistics keep
// counting past it; only the file is capped.
constexpr uint64_t kMaxRecords = 300000;

struct Record {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
};

struct Frame {
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;
  uint64_t id;
  uint64_t op;
};

struct Agg {
  const char* name;
  NameStats stats;
};

struct ThreadLog {
  uint32_t tid = 0;
  bool driver = false;
  bool exited = false;  // guarded by registry mutex
  std::vector<Frame> stack;
  std::vector<Record> records;
  std::vector<Agg> aggs;  // few distinct names: linear search by pointer
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_records{0};

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::unique_ptr<ThreadLog>>& Registry() {
  static std::vector<std::unique_ptr<ThreadLog>> logs;
  return logs;
}

// Registers the thread's log on first use and marks it exited at thread
// exit, so ResetStats can free logs of finished job threads.
struct LogHandle {
  ThreadLog* log = nullptr;
  ~LogHandle() {
    if (log != nullptr) {
      std::lock_guard<std::mutex> lock(RegistryMu());
      log->exited = true;
    }
  }
};
thread_local LogHandle t_handle;

ThreadLog* Log() {
  if (t_handle.log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lock(RegistryMu());
    static uint32_t next_tid = 1;
    log->tid = next_tid++;
    t_handle.log = log.get();
    Registry().push_back(std::move(log));
  }
  return t_handle.log;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void MarkDriverThread() {
  ThreadLog* log = Log();
  log->driver = true;
  log->tid = 0;
}

Span::Span(const char* name, uint64_t op)
    : active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) {
    return;
  }
  ThreadLog* log = Log();
  if (op == 0 && !log->stack.empty()) {
    op = log->stack.back().op;
  }
  log->stack.push_back(
      Frame{name, NowNs(), 0, g_next_id.fetch_add(1, std::memory_order_relaxed), op});
}

Span::~Span() {
  if (!active_) {
    return;
  }
  uint64_t end = NowNs();
  ThreadLog* log = Log();
  Frame f = log->stack.back();
  log->stack.pop_back();
  uint64_t dur = end - f.start_ns;
  uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  uint64_t parent = 0;
  if (!log->stack.empty()) {
    log->stack.back().child_ns += dur;
    parent = log->stack.back().id;
  }
  Agg* agg = nullptr;
  for (Agg& a : log->aggs) {
    if (a.name == f.name) {
      agg = &a;
      break;
    }
  }
  if (agg == nullptr) {
    log->aggs.push_back(Agg{f.name, {}});
    agg = &log->aggs.back();
  }
  agg->stats.count += 1;
  agg->stats.total_ns += dur;
  agg->stats.self_ns += self;
  if (log->driver) {
    agg->stats.driver_self_ns += self;
  }
  if (g_records.fetch_add(1, std::memory_order_relaxed) < kMaxRecords) {
    log->records.push_back(Record{f.name, f.start_ns, end, f.id, parent, f.op});
  }
}

std::string LayerOf(const std::string& name) {
  std::string prefix = name.substr(0, name.find('.'));
  if (prefix == "fs" || prefix == "proc") {
    return "unixlib";
  }
  if (prefix == "kernel" || prefix == "store") {
    return prefix;
  }
  return "bench";
}

std::map<std::string, NameStats> Collect() {
  std::map<std::string, NameStats> out;
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (const auto& log : Registry()) {
    for (const Agg& a : log->aggs) {
      NameStats& s = out[a.name];
      s.count += a.stats.count;
      s.total_ns += a.stats.total_ns;
      s.self_ns += a.stats.self_ns;
      s.driver_self_ns += a.stats.driver_self_ns;
    }
  }
  return out;
}

void ResetStats() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  auto& logs = Registry();
  for (auto& log : logs) {
    log->aggs.clear();
  }
  std::erase_if(logs, [](const std::unique_ptr<ThreadLog>& l) {
    return l->exited && l->records.empty();
  });
}

bool WriteChromeTrace(const std::string& path, uint64_t* written) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(RegistryMu());
  uint64_t t0 = ~uint64_t{0};
  for (const auto& log : Registry()) {
    for (const Record& r : log->records) {
      t0 = std::min(t0, r.start_ns);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"driver\"}}");
  uint64_t n = 0;
  for (const auto& log : Registry()) {
    for (const Record& r : log->records) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"op\":%llu}}",
                   r.name, LayerOf(r.name).c_str(), log->tid,
                   static_cast<double>(r.start_ns - t0) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.op));
      ++n;
    }
  }
  std::fprintf(f, "\n]}\n");
  *written = n;
  return std::fclose(f) == 0;
}

}  // namespace perfbench::spans
