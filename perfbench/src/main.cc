// perfbench: the repository benchmark program.
//
//   perfbench --workload <hot_serve|cold_search|ingest_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints progress and a metric table on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any answer was wrong, 2 on bad arguments or an
// operational failure.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hot_serve|cold_search|ingest_mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &args.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 600) {
        return Usage("bad --seconds");
      }
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsWorkload(args.workload)) return Usage("unknown workload");
  if (!have_seed) return Usage("--seed is required");

  perfbench::RunReport report;
  if (!perfbench::RunWorkload(args, &report)) return 2;

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::fprintf(stderr, "  %-44s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    if (i > 0) json += ", ";
    json += Quote(m.name) + ": {\"value\": " + Number(m.value) +
            ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
