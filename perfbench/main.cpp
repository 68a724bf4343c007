// Repository benchmark entry point (see METRICS.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// Prints the machine fingerprint, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
// check failed, 2 on a usage error (without printing a result).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--out-dir <dir>]\nworkloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used == text.size() && text.find('-') == std::string::npos) return v;
  } catch (const std::exception&) {
  }
  usage("bad value for " + flag + ": " + text);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, value);
    } else if (arg == "--seconds") {
      const std::uint64_t s = parse_u64(arg, value);
      if (s < 1 || s > 3600) usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<int>(s);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--out-dir") {
      o.out_dir = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known |= (w == o.workload);
  if (!known) usage("unknown workload " + o.workload);

  try {
    const perfbench::Outcome out = perfbench::run_workload(o);
    std::cout << "fingerprint " << perfbench::fingerprint_json(out.loader_workers)
              << "\n"
              << perfbench::result_json(out.correct(), out.attempted,
                                        out.failed, out.metrics)
              << std::endl;
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 3;
  }
}
