// vpmem end-to-end benchmark.
//
//   vpmem_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                   [--golden FILE] [--out DIR] [--record-golden]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the recorded spans to DIR/spans-NAME.json).  The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
// --record-golden runs one round at the default seed and stores its
// output digests in FILE.
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"
#include "vpmem/util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using vpmem::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string out = ".";
  bool record_golden = false;
};

int usage(const std::string& why) {
  std::cerr << "vpmem_perfbench: " << why << "\nusage: vpmem_perfbench --workload NAME "
            << "[--seed N] [--seconds S] [--trace 0|1] [--golden FILE] [--out DIR] "
               "[--record-golden]\n";
  return 2;
}

bool parse(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-golden") {
      args.record_golden = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value, &used) != 0;
      } else if (flag == "--golden") {
        args.golden = value;
      } else if (flag == "--out") {
        args.out = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
      if (used != 0 && used != value.size()) throw std::invalid_argument{value};
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args.workload.empty()) error = "--workload is required";
  return error.empty();
}

Json read_golden(const std::string& path) {
  std::ifstream in{path};
  if (!in) return Json::object();
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

/// The recorded digests for this workload, when the seed is the default
/// one and a golden file names the workload.
std::vector<std::string> golden_for(const Args& args, bool& found) {
  found = false;
  std::vector<std::string> out;
  if (args.golden.empty() || args.seed != kDefaultSeed) return out;
  const Json doc = read_golden(args.golden);
  if (!doc.contains("workloads") || !doc.at("workloads").contains(args.workload)) return out;
  for (const Json& d : doc.at("workloads").at(args.workload).as_array()) {
    out.push_back(d.as_string());
  }
  found = true;
  return out;
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_errors(const Tally& tally) {
  for (const auto& e : tally.first_errors) std::cerr << "  invalid " << e << '\n';
}

int record_golden(const Args& args, perfbench::Workload& workload) {
  if (args.golden.empty() || args.seed != kDefaultSeed) {
    return usage("--record-golden needs --golden and the default seed");
  }
  SpanRecorder off{false};
  workload.setup(off);
  const RoundResult round = workload.round(off);
  if (round.failed() > 0) {
    Tally tally;
    tally.add(round);
    print_errors(tally);
    std::cerr << "refusing to record digests of a round with invalid items\n";
    return 1;
  }
  Json doc = read_golden(args.golden);
  if (!doc.contains("workloads")) {
    doc = Json::object();
    doc["seed"] = static_cast<vpmem::i64>(kDefaultSeed);
    doc["chunk"] = kDigestChunk;
    doc["workloads"] = Json::object();
  }
  Json digests = Json::array();
  for (const auto& d : chunk_digests(round.records)) digests.push_back(d);
  doc["workloads"][args.workload] = std::move(digests);
  std::ofstream out{args.golden};
  doc.dump(out, 1);
  out << '\n';
  std::cerr << "recorded " << round.records.size() << " item digests for " << args.workload
            << " in " << args.golden << '\n';
  return out ? 0 : 1;
}

int run(const Args& args) {
  WorkloadOptions options;
  options.seed = args.seed;
  options.scratch_dir = args.out;
  auto workload = make_workload(args.workload, options);
  if (args.record_golden) return record_golden(args, *workload);

  bool have_golden = false;
  const std::vector<std::string> golden = golden_for(args, have_golden);
  const std::vector<std::string>* golden_ptr = have_golden ? &golden : nullptr;
  std::cerr << args.workload << " seed " << args.seed
            << (have_golden ? " (checked against recorded digests)" : "") << '\n';

  if (!args.trace) {
    const Measurement m = measure(*workload, args.seconds, kSetupsPerRound, golden_ptr);
    const std::vector<Metric> metrics = end_to_end_metrics(m);
    std::cerr << "  " << m.rounds.size() << " rounds (throughput at the items' fastest speed, "
              << "median over rounds; percentiles of each item's fastest latency), "
              << m.tally.attempted << " items (" << m.samples << " timed one by one, "
              << m.best_ms.size() << " per round), " << m.setup_s.size() << " set-ups, error_rate "
              << static_cast<double>(m.tally.failed) / static_cast<double>(m.tally.attempted)
              << '\n';
    for (const auto& metric : metrics) {
      std::cerr << "  " << std::left << std::setw(14) << metric.name << ' ' << metric.value
                << ' ' << metric.unit << '\n';
    }
    print_errors(m.tally);
    print_result(m.tally, metrics);
    return 0;
  }

  SpanRecorder recorder{true};
  const TracedMeasurement m = measure_traced(*workload, args.seconds, golden_ptr, recorder);
  const std::vector<Metric> metrics = layer_metrics(m);
  std::cerr << "  " << m.passes << " traced passes, per pass (tracing overhead base: the "
            << "paired untraced passes):\n";
  for (const auto& metric : metrics) {
    std::cerr << "  " << std::left << std::setw(42) << metric.name << ' ' << metric.value << ' '
              << metric.unit << '\n';
  }
  print_errors(m.tally);
  std::filesystem::create_directories(args.out);
  const std::string spans_path = args.out + "/spans-" + args.workload + ".json";
  std::ofstream spans{spans_path};
  recorder.write_chrome_trace(spans);
  std::cerr << "  spans written to " << spans_path << '\n';
  print_result(m.tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse(argc, argv, args, error)) return usage(error);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "vpmem_perfbench: " << e.what() << '\n';
    return 1;
  }
}
