#include "tools/histar-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace histar {
namespace lint {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// True when content[pos..pos+token) matches `token` as a whole word on the
// left (preceded by a non-identifier char). The right side is checked by
// the caller where it matters (tokens usually end in '(' or '[').
bool WordMatchAt(const std::string& s, size_t pos, const std::string& token) {
  if (s.compare(pos, token.size(), token) != 0) {
    return false;
  }
  return pos == 0 || !IsIdentChar(s[pos - 1]);
}

// Finds `token` as a left-word-bounded match in `line`, from `from`.
size_t FindWord(const std::string& line, const std::string& token, size_t from = 0) {
  size_t pos = from;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(line[pos - 1])) {
      return pos;
    }
    ++pos;
  }
  return std::string::npos;
}

// Matches a scoped-object declaration: `Type ident(` or `Type ident;` (with
// arbitrary spacing). Returns true when `line` declares an object of
// `type` at or after `from`.
bool MatchesDecl(const std::string& line, const std::string& type) {
  size_t pos = 0;
  while ((pos = FindWord(line, type, pos)) != std::string::npos) {
    size_t i = pos + type.size();
    if (i >= line.size() || line[i] != ' ') {
      ++pos;
      continue;  // TableLock::Mode, class TableLock, ~TableLock...
    }
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    size_t ident_start = i;
    while (i < line.size() && IsIdentChar(line[i])) {
      ++i;
    }
    if (i == ident_start) {
      ++pos;
      continue;
    }
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    if (i < line.size() && (line[i] == '(' || line[i] == ';' || line[i] == '{')) {
      return true;
    }
    ++pos;
  }
  return false;
}

// The kernel translation units whose label checks must be registry-mediated
// (the old hot_path_audit_test list, now owned by the linter).
const char* kKernelLabelSources[] = {
    "src/kernel/kernel.cc",       "src/kernel/kernel_seg.cc",
    "src/kernel/kernel_thread.cc", "src/kernel/kernel_persist.cc",
    "src/kernel/kernel_batch.cc", "src/kernel/syscall_abi.cc",
};

bool IsKernelLabelSource(const std::string& path) {
  for (const char* p : kKernelLabelSources) {
    if (EndsWith(path, p)) {
      return true;
    }
  }
  return false;
}

bool InSrcTree(const std::string& path) {
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

struct Rule {
  const char* name;
  // Whether the rule applies to this path when no explicit rule list is
  // given. Defining-file exemptions (checked separately) always hold.
  bool (*applies)(const std::string& path);
  // Files exempt even under an explicit --rule (the defining file).
  bool (*exempt)(const std::string& path);
};

bool AppliesSrc(const std::string& p) { return InSrcTree(p); }
bool ExemptNone(const std::string&) { return false; }
bool ExemptSyncH(const std::string& p) { return EndsWith(p, "src/core/sync.h"); }
bool ExemptObjectTable(const std::string& p) {
  return EndsWith(p, "src/kernel/object_table.h");
}
bool ExemptEpoch(const std::string& p) {
  return EndsWith(p, "src/core/epoch.h") || EndsWith(p, "src/core/epoch.cc");
}
bool ExemptStoreAlloc(const std::string& p) {
  return EndsWith(p, "src/store/store_alloc.h");
}
bool AppliesKernelTU(const std::string& p) { return IsKernelLabelSource(p); }
bool AppliesSrcNotObjectTable(const std::string& p) {
  return InSrcTree(p) && !ExemptObjectTable(p);
}
bool AppliesSrcNotEpoch(const std::string& p) { return InSrcTree(p) && !ExemptEpoch(p); }
bool AppliesSrcNotStoreAlloc(const std::string& p) {
  return InSrcTree(p) && !ExemptStoreAlloc(p);
}
bool AppliesSrcNotSyncH(const std::string& p) { return InSrcTree(p) && !ExemptSyncH(p); }
bool ExemptTrace(const std::string& p) {
  return EndsWith(p, "src/core/trace.h") || EndsWith(p, "src/core/trace.cc");
}
bool AppliesSrcNotTrace(const std::string& p) { return InSrcTree(p) && !ExemptTrace(p); }

const Rule kRules[] = {
    {"second-table-lock", AppliesSrcNotObjectTable, ExemptObjectTable},
    {"registry-bypass", AppliesKernelTU, ExemptNone},
    {"epoch-guard-blocking", AppliesSrcNotEpoch, ExemptEpoch},
    {"nofail-region-check", AppliesSrcNotStoreAlloc, ExemptStoreAlloc},
    {"shard-mutex-outside-tablelock", AppliesSrcNotObjectTable, ExemptObjectTable},
    {"raw-sync-primitive", AppliesSrcNotSyncH, ExemptSyncH},
    {"raw-clock-read", AppliesSrcNotTrace, ExemptTrace},
    {"wait-without-reap", AppliesSrc, ExemptNone},
    {"segment-word-rmw", AppliesSrc, ExemptNone},
};

bool RuleEnabled(const Rule& rule, const std::string& path,
                 const std::vector<std::string>& only_rules) {
  if (rule.exempt(path)) {
    return false;
  }
  if (!only_rules.empty()) {
    return std::find(only_rules.begin(), only_rules.end(), rule.name) != only_rules.end();
  }
  return rule.applies(path);
}

// ---- per-line checks -------------------------------------------------------------

void CheckRegistryBypass(const std::string& path, int lineno, const std::string& line,
                         std::vector<Finding>* out) {
  // Allocating / list-walking label calls, forbidden outright in kernel TUs.
  static const char* kForbidden[] = {".ToHi(", ".ToStar(", "RaiseForRead("};
  for (const char* pat : kForbidden) {
    if (line.find(pat) != std::string::npos) {
      out->push_back({path, lineno, "registry-bypass",
                      std::string(pat) + " bypasses the label registry's precomputed "
                                         "shifted forms"});
    }
  }
  // ⊑ / ⊔ / ⊓ are legal only as registry calls (registry_.Leq is memoized;
  // label.Leq is the bypass).
  static const char* kRegistryOnly[] = {".Leq(", ".Join(", ".Meet("};
  static const char* kReceivers[] = {"registry_", "registry"};
  for (const char* pat : kRegistryOnly) {
    size_t pos = 0;
    while ((pos = line.find(pat, pos)) != std::string::npos) {
      bool ok = false;
      for (const char* recv : kReceivers) {
        size_t n = std::char_traits<char>::length(recv);
        if (pos >= n && line.compare(pos - n, n, recv) == 0 &&
            (pos == n || !IsIdentChar(line[pos - n - 1]))) {
          ok = true;
        }
      }
      if (!ok) {
        out->push_back({path, lineno, "registry-bypass",
                        std::string("non-registry ") + pat +
                            " — kernel label checks must be memoized"});
      }
      ++pos;
    }
  }
}

void CheckRawSync(const std::string& path, int lineno, const std::string& line,
                  std::vector<Finding>* out) {
  static const char* kRaw[] = {
      "std::mutex",       "std::shared_mutex",       "std::recursive_mutex",
      "std::timed_mutex", "std::condition_variable", "std::lock_guard",
      "std::unique_lock", "std::shared_lock",        "std::scoped_lock",
  };
  for (const char* pat : kRaw) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos &&
        !IsIdentChar(line[pos + std::char_traits<char>::length(pat)])) {
      out->push_back({path, lineno, "raw-sync-primitive",
                      std::string(pat) + " — use the annotated wrappers in "
                                         "src/core/sync.h so -Wthread-safety sees the "
                                         "lock graph"});
    }
  }
}

void CheckShardMutex(const std::string& path, int lineno, const std::string& line,
                     std::vector<Finding>* out) {
  // TableCap's acquire/release pair belongs to TableLock and
  // PublishedReadTableCap alone; shard storage is object_table.h-private.
  static const char* kForbidden[] = {"cap().Acquire(", "cap().Release(",
                                     "cap_.Acquire(", "cap_.Release(", "shards_["};
  for (const char* pat : kForbidden) {
    if (FindWord(line, pat) != std::string::npos) {
      out->push_back({path, lineno, "shard-mutex-outside-tablelock",
                      std::string(pat) + " — shard locks are acquired only through the "
                                         "scoped TableLock (ascending order)"});
    }
  }
}

void CheckRawClockRead(const std::string& path, int lineno, const std::string& line,
                       std::vector<Finding>* out) {
  // Timing must route through trace::NowNs()/SteadyNow() so the
  // HISTAR_TRACE=0 build really compiles clock reads out. Only *reads* are
  // findings: `steady_clock::duration` and other type mentions are legal,
  // so the chrono patterns require the `::now(` call form.
  static const char* kClockCalls[] = {
      "steady_clock::now",
      "system_clock::now",
      "high_resolution_clock::now",
  };
  for (const char* pat : kClockCalls) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos) {
      size_t i = pos + std::char_traits<char>::length(pat);
      while (i < line.size() && line[i] == ' ') {
        ++i;
      }
      if (i < line.size() && line[i] == '(') {
        out->push_back({path, lineno, "raw-clock-read",
                        std::string(pat) + "() — clock reads go through "
                                           "trace::NowNs()/SteadyNow() so HISTAR_TRACE=0 "
                                           "compiles them out"});
      }
    }
  }
  static const char* kClockWords[] = {"clock_gettime", "gettimeofday", "__rdtsc",
                                      "rdtsc"};
  for (const char* pat : kClockWords) {
    size_t pos = FindWord(line, pat);
    if (pos != std::string::npos &&
        (pos + std::char_traits<char>::length(pat) >= line.size() ||
         !IsIdentChar(line[pos + std::char_traits<char>::length(pat)]))) {
      out->push_back({path, lineno, "raw-clock-read",
                      std::string(pat) + " — clock reads go through "
                                         "trace::NowNs()/SteadyNow() so HISTAR_TRACE=0 "
                                         "compiles them out"});
    }
  }
}

// ---- scoped region rules ---------------------------------------------------------

struct Region {
  const char* kind;  // "table-lock" | "epoch" | "nofail"
  int depth;         // brace depth at the declaration
  int line;
};

void CheckScopedLine(const std::string& path, int lineno, const std::string& line,
                     std::vector<Region>* regions, int depth, bool rule_table_lock,
                     bool rule_epoch, bool rule_nofail, std::vector<Finding>* out) {
  bool in_table_lock = false;
  bool in_epoch = false;
  bool in_nofail = false;
  for (const Region& r : *regions) {
    in_table_lock |= r.kind[0] == 't';
    in_epoch |= r.kind[0] == 'e';
    in_nofail |= r.kind[0] == 'n';
  }

  if (rule_epoch && in_epoch) {
    static const char* kBlocking[] = {
        "MutexLock",     "WriterMutexLock", "ReaderMutexLock", ".Lock(",
        ".Wait(",        ".WaitFor(",       "sleep_for",       "sys_futex_wait",
    };
    for (const char* pat : kBlocking) {
      if (FindWord(line, pat) != std::string::npos ||
          (pat[0] == '.' && line.find(pat) != std::string::npos)) {
        out->push_back({path, lineno, "epoch-guard-blocking",
                        std::string(pat) + " inside an EpochGuard scope — a pinned "
                                           "reader that blocks stalls epoch advancement"});
      }
    }
    if (MatchesDecl(line, "TableLock")) {
      out->push_back({path, lineno, "epoch-guard-blocking",
                      "TableLock inside an EpochGuard scope — the lock-free batch path "
                      "must not fall back to shard locks while pinned"});
    }
  }

  if (rule_nofail && in_nofail) {
    if (FindWord(line, "throw") != std::string::npos) {
      out->push_back({path, lineno, "nofail-region-check",
                      "throw inside a StoreAllocNoFail scope — cleanup must not become "
                      "a second fault"});
    }
    if (line.find("StoreAlloc::Check(") != std::string::npos) {
      out->push_back({path, lineno, "nofail-region-check",
                      "StoreAlloc::Check() inside a StoreAllocNoFail scope — the check "
                      "is suppressed there; the call indicates a misplaced boundary"});
    }
  }

  // Declarations open regions AFTER the checks above, so the declaring line
  // itself is not inside its own region.
  if ((rule_table_lock || rule_epoch) &&
      (MatchesDecl(line, "TableLock") || MatchesDecl(line, "PublishedReadTableCap"))) {
    if (rule_table_lock && in_table_lock) {
      out->push_back({path, lineno, "second-table-lock",
                      "second table-capability acquisition while one is already live — "
                      "one TableLock per syscall, ascending shard order"});
    }
    regions->push_back({"table-lock", depth, lineno});
  }
  if (rule_epoch && MatchesDecl(line, "EpochGuard")) {
    regions->push_back({"epoch", depth, lineno});
  }
  if (rule_nofail && MatchesDecl(line, "StoreAllocNoFail")) {
    regions->push_back({"nofail", depth, lineno});
  }
}

// ---- wait-without-reap -----------------------------------------------------------

// True when the text before a `{` (back to the previous `;`, `{` or `}`)
// opens a namespace, class, struct, union, enum or extern block rather
// than code: a scope keyword after the last `)`, so `template <class T>
// void f(T) {` is still a function.
bool OpensScope(const std::string& prefix) {
  size_t paren = prefix.rfind(')');
  size_t from = paren == std::string::npos ? 0 : paren;
  for (const char* kw : {"namespace", "class", "struct", "union", "enum", "extern"}) {
    const size_t n = std::char_traits<char>::length(kw);
    for (size_t pos = FindWord(prefix, kw, from); pos != std::string::npos;
         pos = FindWord(prefix, kw, pos + 1)) {
      if (pos + n >= prefix.size() || !IsIdentChar(prefix[pos + n])) {
        return true;
      }
    }
  }
  return false;
}

// For a call written `recv.Name(` or `recv->Name(` whose `.`/`->` starts at
// `op`, walks back over the receiver chain (identifiers, `.`, `->`, `(...)`,
// `[...]`) and returns its root identifier; empty when there is none.
std::string ReceiverRoot(const std::string& s, size_t op) {
  size_t i = op;
  std::string root;
  for (;;) {
    while (i > 0 && s[i - 1] == ' ') {
      --i;
    }
    if (i == 0) {
      return root;
    }
    char c = s[i - 1];
    if (c == ')' || c == ']') {
      char open = c == ')' ? '(' : '[';
      int nest = 0;
      while (i > 0) {
        char d = s[--i];
        nest += d == c ? 1 : d == open ? -1 : 0;
        if (nest == 0) {
          break;
        }
      }
      continue;
    }
    if (!IsIdentChar(c)) {
      return root;
    }
    size_t end = i;
    while (i > 0 && IsIdentChar(s[i - 1])) {
      --i;
    }
    root = s.substr(i, end - i);
    size_t j = i;
    while (j > 0 && s[j - 1] == ' ') {
      --j;
    }
    if (j > 0 && s[j - 1] == '.') {
      i = j - 1;
    } else if (j > 1 && s[j - 1] == '>' && s[j - 2] == '-') {
      i = j - 2;
    } else {
      return root;
    }
  }
}

// Positions of the `.`/`->` of every member call `.name(` / `->name(`.
std::vector<size_t> MemberCalls(const std::string& s, const std::string& name) {
  std::vector<size_t> out;
  const std::string call = name + "(";
  for (size_t pos = FindWord(s, call); pos != std::string::npos;
       pos = FindWord(s, call, pos + 1)) {
    size_t j = pos;
    while (j > 0 && s[j - 1] == ' ') {
      --j;
    }
    if (j > 0 && s[j - 1] == '.') {
      out.push_back(j - 1);
    } else if (j > 1 && s[j - 1] == '>' && s[j - 2] == '-') {
      out.push_back(j - 2);
    }
  }
  return out;
}

// Names declared as ProcHandles in `fn` (a function's signature + body,
// cleaned and flattened to one line): `...ProcHandle>> name`, `ProcHandle*
// name`, `ProcHandle name(`, and `name = ....Spawn(` / SpawnPath / Fork.
std::vector<std::string> ProcHandleNames(const std::string& fn) {
  static const std::string kType = "ProcHandle";
  std::vector<std::string> names;
  for (size_t pos = FindWord(fn, kType); pos != std::string::npos;
       pos = FindWord(fn, kType, pos + 1)) {
    size_t i = pos + kType.size();
    while (i < fn.size() && (fn[i] == '>' || fn[i] == '*' || fn[i] == '&' || fn[i] == ' ')) {
      ++i;
    }
    if (fn.compare(i, 6, "const ") == 0) {
      i += 6;
    }
    size_t start = i;
    while (i < fn.size() && IsIdentChar(fn[i])) {
      ++i;
    }
    if (i > start) {
      names.push_back(fn.substr(start, i - start));
    }
  }
  for (const char* spawn : {"Spawn", "SpawnPath", "Fork"}) {
    for (size_t op : MemberCalls(fn, spawn)) {
      size_t stmt = fn.find_last_of(";{}", op);
      stmt = stmt == std::string::npos ? 0 : stmt + 1;
      size_t eq = fn.find('=', stmt);
      if (eq == std::string::npos || eq > op || fn[eq + 1] == '=') {
        continue;
      }
      size_t end = eq;
      while (end > stmt && fn[end - 1] == ' ') {
        --end;
      }
      size_t start = end;
      while (start > stmt && IsIdentChar(fn[start - 1])) {
        --start;
      }
      if (start < end) {
        names.push_back(fn.substr(start, end - start));
      }
    }
  }
  return names;
}

// A function that Waits on a ProcHandle must also Destroy it: Destroy is
// what revokes the child and gives back the spawner's ownership of its
// pr/pw, and registry entries are never freed, so a label that grows per
// spawn makes every later intern cost O(history). A function starts at the
// first `{` outside any function that no scope keyword opens; its
// signature, back to the previous `;`, `{` or `}`, counts as part of it.
void CheckWaitWithoutReap(const std::string& path, const std::string& clean,
                          std::vector<Finding>* out) {
  std::string flat = clean;  // same offsets, one line
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '\t', ' ');

  int depth = 0;
  int fn_depth = -1;     // brace depth around the function being scanned, or -1
  size_t fn_start = 0;   // its signature's start
  size_t stmt = 0;       // just past the last `;`, `{` or `}`
  for (size_t i = 0; i < flat.size(); ++i) {
    char c = flat[i];
    if (c == ';') {
      stmt = i + 1;
    } else if (c == '{') {
      if (fn_depth < 0 && !OpensScope(flat.substr(stmt, i - stmt))) {
        fn_start = stmt;
        fn_depth = depth;
      }
      ++depth;
      stmt = i + 1;
    } else if (c == '}') {
      --depth;
      stmt = i + 1;
      if (depth != fn_depth) {
        continue;
      }
      fn_depth = -1;
      const std::string fn = flat.substr(fn_start, i + 1 - fn_start);
      const std::vector<std::string> handles = ProcHandleNames(fn);
      std::vector<std::string> reaped;
      for (size_t op : MemberCalls(fn, "Destroy")) {
        reaped.push_back(ReceiverRoot(fn, op));
      }
      for (size_t op : MemberCalls(fn, "Wait")) {
        std::string root = ReceiverRoot(fn, op);
        if (root.empty() ||
            std::find(handles.begin(), handles.end(), root) == handles.end() ||
            std::find(reaped.begin(), reaped.end(), root) != reaped.end()) {
          continue;
        }
        int line = 1 + static_cast<int>(std::count(clean.begin(),
                                                   clean.begin() + fn_start + op, '\n'));
        out->push_back({path, line, "wait-without-reap",
                        "ProcHandle " + root + " is Waited on but never Destroyed here — "
                        "the spawner keeps the child's pr/pw ownership, and its label "
                        "grows with every spawn"});
      }
    }
  }
}

// ---- segment-word-rmw ------------------------------------------------------------

// The arguments of the call whose `(` is at `open`, split at top-level
// commas, spaces dropped; empty if the call is unterminated.
std::vector<std::string> CallArgs(const std::string& s, size_t open) {
  std::vector<std::string> args(1);
  int nest = 0;
  for (size_t i = open + 1; i < s.size(); ++i) {
    char c = s[i];
    if (c == '(' || c == '[' || c == '{') {
      ++nest;
    } else if (c == ')' || c == ']' || c == '}') {
      if (nest-- == 0) {
        return args;
      }
    } else if (c == ',' && nest == 0) {
      args.emplace_back();
      continue;
    }
    if (c != ' ') {
      args.back() += c;
    }
  }
  return {};
}

// A segment word must change by sys_segment_cas alone: a sys_segment_read
// and a sys_segment_write of the same ⟨segment, offset, length⟩ in one unit
// of code is a read-modify-write another thread can interleave with — the
// two-call compare that once hung SegmentMutex. A unit is a function body,
// or a whole class body: inline members that share the segment and offset
// fields (a Load/Store helper pair) are one protocol. Arguments match
// textually (the 2nd, 4th and 5th: entry, offset and length); the length
// keeps a staging buffer reused for frames of different sizes quiet.
void CheckSegmentWordRmw(const std::string& path, const std::string& clean,
                         std::vector<Finding>* out) {
  std::string flat = clean;  // same offsets, one line
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  std::replace(flat.begin(), flat.end(), '\t', ' ');
  auto opens_namespace = [](const std::string& prefix) {
    for (const char* kw : {"namespace", "extern"}) {
      size_t pos = FindWord(prefix, kw);
      if (pos != std::string::npos &&
          (pos + std::char_traits<char>::length(kw) >= prefix.size() ||
           !IsIdentChar(prefix[pos + std::char_traits<char>::length(kw)]))) {
        return true;
      }
    }
    return false;
  };
  // ⟨segment, offset, length⟩ keys of a unit's calls (`k->name(...)`, so
  // declarations do not count), with each call's offset in `flat`.
  auto keys_of = [&flat](size_t from, size_t to, const std::string& name) {
    const std::string unit = flat.substr(from, to - from);
    std::vector<std::pair<std::string, size_t>> keys;
    for (size_t op : MemberCalls(unit, name)) {
      size_t open = unit.find('(', op);
      std::vector<std::string> args = CallArgs(unit, open);
      if (args.size() == 5) {
        keys.emplace_back(args[1] + "@" + args[3] + "+" + args[4], from + op);
      }
    }
    return keys;
  };
  int depth = 0;
  int unit_depth = -1;
  size_t unit_start = 0;
  size_t stmt = 0;
  for (size_t i = 0; i < flat.size(); ++i) {
    char c = flat[i];
    if (c == ';') {
      stmt = i + 1;
    } else if (c == '{') {
      if (unit_depth < 0 && !opens_namespace(flat.substr(stmt, i - stmt))) {
        unit_start = stmt;
        unit_depth = depth;
      }
      ++depth;
      stmt = i + 1;
    } else if (c == '}') {
      --depth;
      stmt = i + 1;
      if (depth != unit_depth) {
        continue;
      }
      unit_depth = -1;
      const auto reads = keys_of(unit_start, i, "sys_segment_read");
      for (const auto& [key, pos] : keys_of(unit_start, i, "sys_segment_write")) {
        bool paired = std::any_of(reads.begin(), reads.end(),
                                  [&key](const auto& r) { return r.first == key; });
        if (!paired) {
          continue;
        }
        int line = 1 + static_cast<int>(std::count(clean.begin(), clean.begin() + pos, '\n'));
        out->push_back({path, line, "segment-word-rmw",
                        "sys_segment_read and sys_segment_write of the same segment word (" +
                            key + ") — a read-modify-write that other threads can "
                            "interleave; change the word with sys_segment_cas"});
      }
    }
  }
}

}  // namespace

std::string CleanSource(const std::string& content) {
  std::string out = content;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < out.size(); ++i) {
    char c = out[i];
    char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == 'R' && next == '"' && (i == 0 || !IsIdentChar(out[i - 1]))) {
          size_t paren = out.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + out.substr(i + 2, paren - i - 2) + "\"";
            st = St::kRawString;
            for (size_t j = i; j <= paren; ++j) {
              if (out[j] != '\n') out[j] = ' ';
            }
            i = paren;
          }
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            out[i + 1] = ' ';
          }
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRawString:
        if (out.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> AllRuleNames() {
  std::vector<std::string> names;
  for (const Rule& r : kRules) {
    names.push_back(r.name);
  }
  return names;
}

std::vector<Finding> LintSource(const std::string& rel_path, const std::string& content,
                                const std::vector<std::string>& only_rules) {
  bool enabled[sizeof(kRules) / sizeof(kRules[0])];
  bool any = false;
  for (size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    enabled[i] = RuleEnabled(kRules[i], rel_path, only_rules);
    any |= enabled[i];
  }
  std::vector<Finding> findings;
  if (!any) {
    return findings;
  }
  const bool rule_table_lock = enabled[0];
  const bool rule_registry = enabled[1];
  const bool rule_epoch = enabled[2];
  const bool rule_nofail = enabled[3];
  const bool rule_shard = enabled[4];
  const bool rule_raw_sync = enabled[5];
  const bool rule_raw_clock = enabled[6];
  const bool rule_wait_reap = enabled[7];
  const bool rule_segment_rmw = enabled[8];

  std::string clean = CleanSource(content);
  if (rule_wait_reap) {
    CheckWaitWithoutReap(rel_path, clean, &findings);
  }
  if (rule_segment_rmw) {
    CheckSegmentWordRmw(rel_path, clean, &findings);
  }
  std::istringstream in(clean);
  std::string line;
  int lineno = 0;
  int depth = 0;
  std::vector<Region> regions;
  while (std::getline(in, line)) {
    ++lineno;
    if (rule_registry) {
      CheckRegistryBypass(rel_path, lineno, line, &findings);
    }
    if (rule_raw_sync) {
      CheckRawSync(rel_path, lineno, line, &findings);
    }
    if (rule_raw_clock) {
      CheckRawClockRead(rel_path, lineno, line, &findings);
    }
    if (rule_shard) {
      CheckShardMutex(rel_path, lineno, line, &findings);
    }
    if (rule_table_lock || rule_epoch || rule_nofail) {
      CheckScopedLine(rel_path, lineno, line, &regions, depth, rule_table_lock,
                      rule_epoch, rule_nofail, &findings);
    }
    // Update brace depth and close regions whose enclosing block ended.
    for (char c : line) {
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        while (!regions.empty() && depth < regions.back().depth) {
          regions.pop_back();
        }
      }
    }
  }
  return findings;
}

}  // namespace lint
}  // namespace histar
