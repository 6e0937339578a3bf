// speed_perfbench: run one benchmark workload and print its metrics.
//
//   speed_perfbench --workload small_hits|large_misses|stream_cluster
//                   --seed N --seconds S --trace 0|1
//                   [--commit SHA] [--source-digest HEX] [--span-file PATH]
//   speed_perfbench --counts-only --workload W
//
// Stdout carries the host record, one "# name value unit" line per figure,
// and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). A wrong result makes the run incorrect and the exit code 1;
// any other failure exits 2 without a result line. --counts-only prints the
// exact-count pass of the workload as {"counts": {...}}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.h"

namespace {

using perfbench::Metric;
using perfbench::Metrics;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `names`, in that order.
/// A name the run did not set reads 0: its layer was bypassed.
std::string metrics_json(
    const Metrics& metrics,
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* m = metrics.find(names[i].first);
    if (i > 0) out += ", ";
    out += "\"" + names[i].first + "\": {\"value\": " +
           number(m != nullptr ? m->value : 0) + ", \"unit\": \"" +
           names[i].second + "\"}";
  }
  return out + "}";
}

void print_lines(const Metrics& metrics) {
  for (const Metric& m : metrics.all()) {
    std::printf("# %s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: speed_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--source-digest HEX] "
               "[--span-file PATH] | --counts-only --workload W\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--counts-only") {
      opt.counts_only = true;
    } else if (arg == "--commit") {
      opt.commit = value();
    } else if (arg == "--source-digest") {
      opt.source_digest = value();
    } else if (arg == "--span-file") {
      opt.span_file = value();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();

  try {
    if (opt.counts_only) {
      Metrics counts;
      if (opt.workload == "small_hits") {
        counts = perfbench::count_small_hits();
      } else if (opt.workload == "large_misses") {
        counts = perfbench::count_large_misses();
      } else if (opt.workload == "stream_cluster") {
        counts = perfbench::count_stream_cluster();
      } else {
        return usage();
      }
      std::string out = "{\"counts\": {";
      for (std::size_t i = 0; i < counts.all().size(); ++i) {
        const Metric& m = counts.all()[i];
        if (i > 0) out += ", ";
        out += "\"" + m.name + "\": " + number(m.value);
      }
      std::printf("%s}}\n", out.c_str());
      return 0;
    }

    perfbench::RunResult result;
    if (opt.workload == "small_hits") {
      result = perfbench::run_small_hits(opt);
    } else if (opt.workload == "large_misses") {
      result = perfbench::run_large_misses(opt);
    } else if (opt.workload == "stream_cluster") {
      result = perfbench::run_stream_cluster(opt);
    } else {
      return usage();
    }

    std::printf("%s\n", perfbench::host_record_json(opt).c_str());
    print_lines(result.e2e);
    print_lines(result.info);
    print_lines(result.layer);
    const bool correct = result.mismatches == 0;
    const std::string metrics =
        opt.trace ? metrics_json(result.layer, perfbench::layer_metric_units())
                  : metrics_json(result.e2e, perfbench::e2e_metric_units());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(result.attempted),
        static_cast<unsigned long long>(result.failed), metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "speed_perfbench: %s\n", e.what());
    return 2;
  }
}
