// §4.1 code-size accounting.
//
// The paper argues HiStar's simple kernel interface keeps the fully-trusted
// code small: 15,200 lines of C (~45% fewer than Asbestos), split into
// architecture code (3,400), persistence (4,000), drivers (3,000) and the
// rest (4,800); the eepro100 driver is 500 lines against 2,500 in Linux.
//
// This binary prints the equivalent inventory for this reproduction: lines
// per module, with the trusted computing base (src/core + src/kernel +
// src/store — everything that enforces labels or touches persistence)
// totaled separately from the untrusted bulk (unixlib, net, auth, apps).
// The shape to check is the paper's: the trusted base is a small fraction
// of the system, and everything Unix lives outside it.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace {

struct ModuleLines {
  uint64_t total = 0;
  uint64_t semicolons = 0;  // the paper also reports "lines with a semicolon"
  int files = 0;
};

ModuleLines CountDir(const std::filesystem::path& dir) {
  ModuleLines m;
  if (!std::filesystem::exists(dir)) {
    return m;
  }
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      ++m.total;
      if (line.find(';') != std::string::npos) {
        ++m.semicolons;
      }
    }
    ++m.files;
  }
  return m;
}

}  // namespace

int main() {
  const std::filesystem::path src = std::filesystem::path(HISTAR_SOURCE_DIR) / "src";

  // module → (paper analogue, trusted?)
  const std::vector<std::tuple<std::string, std::string, bool>> modules = {
      {"core", "label algebra (in-kernel label code)", true},
      {"kernel", "kernel proper (threads/containers/gates/AS)", true},
      {"store", "Bε-tree, WAL, object persistence (4,000 in paper)", true},
      {"unixlib", "Unix emulation library (~10,000 in paper)", false},
      {"net", "netd + stack (lwIP was external)", false},
      {"auth", "authentication services (479 lines in paper)", false},
      {"apps", "wrap + scanner + updater (wrap: 110 lines)", false},
      {"baseline", "monolithic comparison kernel (not in paper TCB)", false},
  };

  std::printf("%-10s %8s %10s %6s  %s\n", "module", "lines", "semicolons", "files",
              "paper analogue");
  uint64_t trusted = 0;
  uint64_t trusted_semicolons = 0;
  uint64_t untrusted = 0;
  for (const auto& [name, note, is_trusted] : modules) {
    ModuleLines m = CountDir(src / name);
    std::printf("%-10s %8llu %10llu %6d  %s%s\n", name.c_str(),
                static_cast<unsigned long long>(m.total),
                static_cast<unsigned long long>(m.semicolons), m.files,
                is_trusted ? "[TCB] " : "", note.c_str());
    (is_trusted ? trusted : untrusted) += m.total;
    if (is_trusted) {
      trusted_semicolons += m.semicolons;
    }
  }
  std::printf("\n");
  std::printf("trusted computing base : %6llu lines   (paper: 15,200 lines of C + 150 asm)\n",
              static_cast<unsigned long long>(trusted));
  std::printf("TCB with a semicolon   : %6llu lines\n",
              static_cast<unsigned long long>(trusted_semicolons));
  std::printf("untrusted user level   : %6llu lines   (paper: ~10,000 library + apps)\n",
              static_cast<unsigned long long>(untrusted));
  std::printf("TCB fraction           : %5.1f%%\n",
              100.0 * static_cast<double>(trusted) /
                  static_cast<double>(trusted + untrusted));
  return 0;
}
