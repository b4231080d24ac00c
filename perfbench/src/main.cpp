#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench_e2e solve|trace --workload NAME --seed N "
               "--work-dir DIR\n"
               "       perfbench_e2e probe\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload, work_dir, seed;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") workload = argv[i + 1];
    else if (flag == "--seed") seed = argv[i + 1];
    else if (flag == "--work-dir") work_dir = argv[i + 1];
    else return usage();
  }
  try {
    if (mode == "probe") return perfbench::run_probe();
    if (mode != "solve" && mode != "trace") return usage();
    if (workload.empty() || seed.empty() || work_dir.empty()) return usage();
    const auto w = perfbench::make_workload(
        workload, std::stoull(seed), work_dir);
    if (!w) {
      std::cerr << "unknown workload " << workload << '\n';
      return 2;
    }
    return mode == "solve" ? perfbench::run_untraced(*w)
                           : perfbench::run_traced(*w, seed, work_dir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << e.what() << '\n';
    return 1;
  }
}
