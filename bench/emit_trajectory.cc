// Folds google-benchmark --benchmark_format=json outputs into a
// machine-checkable BENCH_pr<N>.json trajectory at the repo root.
//
// Not a benchmark: a plain binary (no histar, no benchmark lib) driven by
// scripts/bench_json.sh:
//
//   emit_trajectory --out BENCH_pr6.json --pr 6 --sha <git sha> --nproc <n>
//       labels.json objtable.json ipc.json
//
// Parsing is a tolerant line scan over the one-field-per-line JSON the
// benchmark library emits — each "benchmarks" entry contributes one row
// {bench, threads, arg, ns_per_op, items_per_second, counters} keyed off
// its "name"/"run_type"/"real_time"/"items_per_second"/"time_unit" lines
// (items_per_second only for rows that report it), aggregate rows are
// skipped —
// so the tool has no JSON-library dependency and survives harmless format
// drift. Benchmark counters named "ctr_*" (the library prints them after
// "time_unit", so rows flush on the next "name" line or EOF) are carried
// through into a per-row "counters" object with the prefix stripped. The
// env block records nproc and the git sha; on hosts with fewer than 8 CPUs
// it also carries a machine-readable caveat: the multithreaded rows there
// measure scheduling overhead, not parallel speedup.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Row {
  std::string bench;      // name up to the first '/', the family
  std::string full_name;  // the complete benchmark name
  int threads = 1;
  long long arg = -1;     // first numeric path component, -1 if none
  double ns_per_op = 0.0;
  // Aggregate items/s over all threads, for rows that SetItemsProcessed
  // (0 = not reported).
  double items_per_second = 0.0;
  // "ctr_*" benchmark counters, prefix stripped, in emission order.
  std::vector<std::pair<std::string, double>> counters;
};

// Extracts the string value of `"key": "value",` from a line, or empty.
std::string StrField(const std::string& line, const char* key) {
  std::string pat = std::string("\"") + key + "\":";
  size_t p = line.find(pat);
  if (p == std::string::npos) {
    return "";
  }
  size_t q1 = line.find('"', p + pat.size());
  if (q1 == std::string::npos) {
    return "";
  }
  size_t q2 = line.find('"', q1 + 1);
  if (q2 == std::string::npos) {
    return "";
  }
  return line.substr(q1 + 1, q2 - q1 - 1);
}

// Extracts the numeric value of `"key": 1.234e+00,` from a line.
bool NumField(const std::string& line, const char* key, double* out) {
  std::string pat = std::string("\"") + key + "\":";
  size_t p = line.find(pat);
  if (p == std::string::npos) {
    return false;
  }
  *out = strtod(line.c_str() + p + pat.size(), nullptr);
  return true;
}

double ToNs(double v, const std::string& unit) {
  if (unit == "us") {
    return v * 1e3;
  }
  if (unit == "ms") {
    return v * 1e6;
  }
  if (unit == "s") {
    return v * 1e9;
  }
  return v;  // ns (the default)
}

// "BM_X/4/real_time/threads:2" → bench "BM_X", arg 4, threads 2.
void ParseName(const std::string& name, Row* r) {
  r->full_name = name;
  size_t slash = name.find('/');
  r->bench = name.substr(0, slash);
  r->threads = 1;
  size_t t = name.find("threads:");
  if (t != std::string::npos) {
    r->threads = atoi(name.c_str() + t + strlen("threads:"));
  }
  // First numeric path component is the benchmark's Arg.
  while (slash != std::string::npos) {
    size_t start = slash + 1;
    size_t end = name.find('/', start);
    std::string part = name.substr(start, end == std::string::npos
                                              ? std::string::npos
                                              : end - start);
    if (!part.empty() && (isdigit(static_cast<unsigned char>(part[0])) != 0)) {
      r->arg = atoll(part.c_str());
      break;
    }
    slash = end;
  }
}

// `tag`, when non-empty, suffixes every row's full_name with "@<tag>" so one
// trajectory can carry the same benchmark from two build variants side by
// side (PR 10 folds a -DHISTAR_TRACE=0 tree in as "@notrace").
bool ScanFile(const std::string& path, const std::string& tag,
              std::vector<Row>* rows) {
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "emit_trajectory: cannot open %s\n", path.c_str());
    return false;
  }
  Row cur;
  bool have_name = false;
  bool is_iteration = true;
  bool have_time = false;
  double real_time = 0.0;
  std::string unit;
  // Counters print after time_unit, so a row only flushes when the next
  // "name" line (or EOF) proves it is complete.
  auto flush = [&]() {
    if (have_name && is_iteration && have_time) {
      cur.ns_per_op = ToNs(real_time, unit.empty() ? "ns" : unit);
      if (!tag.empty()) {
        cur.full_name += "@" + tag;
      }
      rows->push_back(cur);
    }
    have_name = false;
  };
  std::string line;
  while (std::getline(in, line)) {
    std::string name = StrField(line, "name");
    if (!name.empty() && line.find("\"run_name\"") == std::string::npos) {
      flush();
      cur = Row();
      ParseName(name, &cur);
      have_name = true;
      is_iteration = true;
      have_time = false;
      unit.clear();
      continue;
    }
    if (!have_name) {
      continue;
    }
    std::string rt = StrField(line, "run_type");
    if (!rt.empty()) {
      is_iteration = (rt == "iteration");
      continue;
    }
    double v;
    if (NumField(line, "real_time", &v)) {
      real_time = v;
      have_time = true;
      continue;
    }
    if (NumField(line, "items_per_second", &v)) {
      cur.items_per_second = v;
      continue;
    }
    std::string u = StrField(line, "time_unit");
    if (!u.empty()) {
      unit = u;
      continue;
    }
    // `"ctr_wops": 2.003e+03,` → counter ("wops", 2003).
    size_t c = line.find("\"ctr_");
    if (c != std::string::npos) {
      size_t key_end = line.find('"', c + 1);
      if (key_end != std::string::npos) {
        std::string key = line.substr(c + 5, key_end - (c + 5));
        double cv;
        if (!key.empty() && NumField(line, ("ctr_" + key).c_str(), &cv)) {
          cur.counters.emplace_back(key, cv);
        }
      }
    }
  }
  flush();
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_pr6.json";
  std::string sha = "unknown";
  int nproc = 0;
  int pr = 6;
  // --tag is positional: it applies to the input files after it, so one
  // invocation can fold untagged rows and "@notrace" rows into one file.
  std::vector<std::pair<std::string, std::string>> inputs;  // (path, tag)
  std::string tag;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--sha" && i + 1 < argc) {
      sha = argv[++i];
    } else if (a == "--nproc" && i + 1 < argc) {
      nproc = atoi(argv[++i]);
    } else if (a == "--pr" && i + 1 < argc) {
      pr = atoi(argv[++i]);
    } else if (a == "--tag" && i + 1 < argc) {
      tag = argv[++i];
    } else {
      inputs.emplace_back(a, tag);
    }
  }
  if (inputs.empty()) {
    fprintf(stderr,
            "usage: emit_trajectory [--out F] [--pr N] [--sha S] [--nproc N] "
            "bench1.json [--tag T] [bench2.json ...]\n");
    return 2;
  }

  std::vector<Row> rows;
  for (const auto& in : inputs) {
    if (!ScanFile(in.first, in.second, &rows)) {
      return 1;
    }
  }
  if (rows.empty()) {
    fprintf(stderr, "emit_trajectory: no benchmark rows found\n");
    return 1;
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"histar-bench-trajectory-v1\",\n";
  os << "  \"pr\": " << pr << ",\n";
  os << "  \"env\": {\n";
  os << "    \"nproc\": " << nproc << ",\n";
  os << "    \"git_sha\": \"" << JsonEscape(sha) << "\",\n";
  if (nproc > 0 && nproc < 8) {
    os << "    \"caveat\": \"single-or-few-cpu host (nproc=" << nproc
       << "): rows with threads>nproc measure scheduling overhead, not "
          "parallel speedup\"\n";
  } else {
    os << "    \"caveat\": null\n";
  }
  os << "  },\n";
  os << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"bench\": \"" << JsonEscape(r.bench) << "\", \"full_name\": \""
       << JsonEscape(r.full_name) << "\", \"threads\": " << r.threads
       << ", \"arg\": " << r.arg << ", \"ns_per_op\": " << r.ns_per_op;
    if (r.items_per_second > 0) {
      os << ", \"items_per_second\": " << r.items_per_second;
    }
    if (!r.counters.empty()) {
      os << ", \"counters\": {";
      for (size_t j = 0; j < r.counters.size(); ++j) {
        os << "\"" << JsonEscape(r.counters[j].first)
           << "\": " << r.counters[j].second
           << (j + 1 < r.counters.size() ? ", " : "");
      }
      os << "}";
    }
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";

  std::ofstream out(out_path);
  if (!out) {
    fprintf(stderr, "emit_trajectory: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << os.str();
  std::cout << "wrote " << out_path << " (" << rows.size() << " rows)\n";
  return 0;
}
