// The vpmem_cli argv contract, checked against the real binary: every
// subcommand accepts exactly the flags it reads, so an unread flag, an
// unknown subcommand, a wrong positional count, a malformed number and a
// count below its floor all exit 2 (usage).  The documented invocation
// shapes keep running, `report` honours --no-attribution and --window, and
// an unparsable --replay line or --fault name is a typed config error
// (exit 3).  Every run here is small so the suite also runs under ASan.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_process.hpp"
#include "vpmem/util/json.hpp"

namespace vpmem {
namespace {

using cli_test::quoted;
using cli_test::run_cli;
using cli_test::slurp;
using cli_test::TempDir;
using Argv = std::vector<std::string>;

Argv with(Argv args, const Argv& extra) {
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(CliArgs, EverySubcommandRejectsAFlagItDoesNotRead) {
  TempDir dir{"unread"};
  const std::string trace_out = dir.file("t.json");
  // A working invocation of each subcommand plus one flag it never reads.
  const std::vector<std::pair<Argv, Argv>> cases = {
      {{"single", "16", "4", "3"}, {"--same-cpu"}},
      {{"pair", "12", "3", "1", "7"}, {"--dedicated"}},
      {{"render", "12", "3", "1", "7", "0", "3"}, {"--cycles", "10"}},
      {{"report", "13", "6", "1", "6"}, {"--dedicated"}},
      {{"triad", "64", "5"}, {"--sections", "4"}},
      {{"idim", "16", "4", "1", "3", "100"}, {"--out", trace_out}},
      {{"diagnose", "13", "6", "1", "6"}, {"--length", "5"}},
      {{"kernel", "triad", "64", "5"}, {"--same-cpu"}},
      {{"fuzz", "5"}, {"--sections", "4"}},
      {{"sweep", "16", "4", "--d1", "1", "--d2", "1:2"}, {"--cycles", "5"}},
      {{"faults", "12", "3", "1", "7", "0", "3", "--inline", "stall;boff@6:b5;bon@9:b5"},
       {"--window", "3"}},
      {{"trace", "12", "3", "1", "7", "0", "3", "--out", trace_out}, {"--attribution"}},
      {{"single", "16", "4", "3"}, {"--resume"}},
      {{"report", "13", "6", "1", "6"}, {"--seed", "5"}},
  };
  for (const auto& [base, extra] : cases) {
    EXPECT_EQ(run_cli(base), 0) << quoted(base);
    EXPECT_EQ(run_cli(with(base, extra)), 2) << quoted(with(base, extra));
  }
}

TEST(CliArgs, FlagsUnreadForThePositionalShapeAreUsageErrors) {
  // A replay runs one recorded case, so it reads nothing but --json; a
  // single stream has no second stream to put on the same CPU.
  const std::string repro =
      "vpmem.fuzz/1 m=12 s=12 nc=5 map=cyclic prio=fixed cycles=224 fault=none "
      "stream=b2,d3,c0,linf,t0 stream=b4,d1,c1,linf,t0";
  TempDir dir{"shape"};
  EXPECT_EQ(run_cli({"fuzz", "--replay", repro, "--json", dir.file("r.json")}), 0);
  const std::vector<Argv> bad = {
      {"fuzz", "5", "--replay", repro, "--seed", "9", "--jobs", "4", "--fault-plans"},
      {"fuzz", "5", "--replay", repro},
      {"fuzz", "--replay", repro, "--seed", "9"},
      {"fuzz", "--jobs", "2", "--replay", repro},
      {"fuzz", "--replay", repro, "--no-shrink"},
      {"report", "13", "6", "1", "--same-cpu"},
      {"trace", "13", "6", "1", "--same-cpu", "--out", dir.file("t.json")},
      {"faults", "12", "3", "1", "--same-cpu", "--inline", "stall", "--length", "20"},
  };
  for (const auto& args : bad) EXPECT_EQ(run_cli(args), 2) << quoted(args);
  EXPECT_EQ(run_cli({"report", "13", "6", "1", "6", "--same-cpu"}), 0);
  EXPECT_EQ(run_cli({"faults", "12", "3", "1", "--inline", "stall", "--length", "20"}), 0);
}

TEST(CliArgs, UnknownSubcommandsAndWrongAritiesAreUsageErrors) {
  const std::vector<Argv> bad = {
      {},
      {"nosuch"},
      {"--json", "-"},
      {"single", "16", "4"},
      {"single", "16", "4", "3", "4"},
      {"single", "16", "4", "3", "word"},
      {"pair", "12", "3", "1"},
      {"render", "12", "3", "1", "7", "0"},
      {"render", "12", "3", "1", "7", "0", "3", "40", "5"},
      {"report", "13", "6", "1", "6", "0"},
      {"trace", "13", "6"},
      {"faults", "12", "3", "1", "7", "0", "--inline", "stall"},
      {"faults", "12", "3", "1", "7", "0", "3"},  // neither --plan nor --inline
      {"triad", "64"},
      {"kernel", "64", "5"},
      {"kernel", "triad", "64"},
      {"kernel", "triad", "64", "5", "6"},
      {"kernel", "nosuch", "64", "5"},
      {"idim", "16", "4", "1", "3"},
      {"diagnose", "13", "6", "1"},
      {"fuzz", "5", "6"},
      {"sweep", "16", "--d1", "1", "--d2", "1"},
      {"sweep", "16", "4", "--d2", "1:2"},  // --d1 is required
      {"sweep", "16", "4", "--d1", "1", "--d2", "1", "--resume"},  // without --journal
      {"report", "13", "6", "1", "6", "--window"},  // flag value missing
  };
  for (const auto& args : bad) EXPECT_EQ(run_cli(args), 2) << quoted(args);
}

TEST(CliArgs, CountsBelowTheirFloorAreUsageErrors) {
  const std::vector<Argv> bad = {
      {"report", "13", "6", "1", "6", "--cycles", "-5"},
      {"report", "13", "6", "1", "6", "--window", "-1"},
      {"report", "13", "6", "1", "6", "--length", "-1"},
      {"single", "16", "4", "3", "--sections", "-4"},
      {"fuzz", "5", "--jobs", "0"},
      {"fuzz", "5", "--jobs", "-2"},
      {"fuzz", "5", "--seed", "-1"},
      {"sweep", "16", "4", "--d1", "1", "--d2", "1", "--jobs", "0"},
      {"sweep", "16", "4", "--d1", "1", "--d2", "1", "--retries", "-1"},
      {"faults", "12", "3", "1", "7", "0", "3", "--inline", "stall", "--max-cycles", "-1"},
      {"trace", "12", "3", "1", "7", "0", "3", "--window", "-8"},
      {"pair", "12", "3", "-1", "7"},
  };
  for (const auto& args : bad) EXPECT_EQ(run_cli(args), 2) << quoted(args);
}

TEST(CliArgs, MalformedNumbersAreUsageErrors) {
  // Every numeric argument is parsed strictly: empty input, trailing
  // text and overflow exit 2 instead of silently becoming 0 or a prefix.
  const std::vector<Argv> bad = {
      {"fuzz", "5", "--jobs", "abc"},
      {"fuzz", "5", "--jobs", ""},
      {"report", "13", "6", "1", "6", "--cycles", "12x"},
      {"fuzz", "5", "--seed", "18446744073709551616"},  // 2^64
      {"fuzz", "5", "--seed", "0x10000000000000000"},
      {"fuzz", "5", "--seed", "0x"},
      {"sweep", "16", "4", "--d1", "3:x", "--d2", "1:2"},
      {"sweep", "16", "4", "--d1", "3:", "--d2", "1:2"},
      {"pair", "12x", "3", "1", "7"},
      {"pair", "99999999999999999999", "3", "1", "7"},
  };
  for (const auto& args : bad) EXPECT_EQ(run_cli(args), 2) << quoted(args);
  // Well-formed values still run: decimal and 0x-prefixed hex seeds
  // (CI passes hex), and a single-value stride range.
  EXPECT_EQ(run_cli({"fuzz", "5", "--seed", "0x2a", "--jobs", "1"}), 0);
  EXPECT_EQ(run_cli({"fuzz", "5", "--seed", "42"}), 0);
  EXPECT_EQ(run_cli({"sweep", "16", "4", "--d1", "3", "--d2", "1:2"}), 0);
}

TEST(CliArgs, DocumentedInvocationShapesRun) {
  TempDir dir{"shapes"};
  const auto f = [&](const std::string& name) { return dir.file(name); };
  const std::string fault_none_repro =
      "vpmem.fuzz/1 m=12 s=12 nc=5 map=cyclic prio=fixed cycles=224 fault=none "
      "fplan=remap_spare;slow@91:b2:v4;bon@114:b2;poff@130:c0:s1 "
      "stream=b2,d3,c0,linf,t0 stream=b4,d1,c1,linf,t0";
  // The README, DESIGN.md, CI and tools/check.sh shapes, at small sizes.
  const std::vector<std::pair<Argv, int>> cases = {
      {{"report", "13", "6", "1", "6"}, 0},
      {{"pair", "12", "3", "1", "7", "--json", f("pair.json")}, 0},
      {{"diagnose", "13", "6", "1", "6"}, 0},
      {{"single", "16", "4", "3", "--json", "-"}, 0},
      {{"render", "12", "3", "1", "7", "0", "3", "40", "--sections", "4"}, 0},
      {{"idim", "16", "4", "1", "3", "100", "--same-cpu"}, 0},
      {{"triad", "64", "5"}, 0},
      {{"kernel", "daxpy", "64", "1", "--dedicated"}, 0},
      {{"trace", "13", "6", "1", "6", "0", "0", "--out", f("fig3.json")}, 0},
      {{"trace", "12", "2", "1", "1", "0", "2", "--same-cpu", "--sections", "2", "--out",
        f("fig7.json"), "--json", f("fig7.cli.json")},
       0},
      {{"trace", "12", "3", "1", "7", "0", "3", "--window", "8", "--no-attribution", "--out",
        f("w.json")},
       0},
      {{"faults", "12", "3", "1", "7", "0", "3", "--inline", "stall;boff@60:b5;bon@180:b5",
        "--cycles", "240"},
       0},
      {{"faults", "12", "3", "1", "7", "0", "3", "--inline", "remap_spare;boff@60:b5;bon@180:b5",
        "--policy", "stall", "--max-cycles", "100000", "--json", "-"},
       0},
      {{"fuzz"}, 0},
      {{"fuzz", "20", "--seed", "0xbeef"}, 0},
      {{"fuzz", "20", "--json", "-"}, 0},
      {{"fuzz", "20", "--fault-plans", "--seed", "0x20260807", "--jobs", "2"}, 0},
      {{"fuzz", "20", "--cycles", "64", "--no-shrink"}, 0},
      {{"fuzz", "20", "--fault", "short-bank-busy"}, 1},  // the harness catches it
      {{"fuzz", "--replay", fault_none_repro}, 0},
      {{"sweep", "64", "4", "--d1", "7:7", "--d2", "12:12", "--jobs", "1"}, 0},
      {{"sweep", "16", "3", "--d1", "1:2", "--d2", "1:3", "--jobs", "2", "--journal",
        f("sweep.jsonl"), "--out", f("results.json")},
       0},
      {{"sweep", "16", "3", "--d1", "1:2", "--d2", "1:3", "--jobs", "2", "--journal",
        f("sweep.jsonl"), "--resume", "--out", f("results.json")},
       0},
      {{"sweep", "16", "3", "--d1", "1:2", "--d2", "1:2", "--same-cpu", "--sections", "4",
        "--cyclic-priority", "--consecutive", "--retries", "2", "--throttle-ms", "1"},
       0},
  };
  for (const auto& [args, code] : cases) EXPECT_EQ(run_cli(args), code) << quoted(args);
}

TEST(CliArgs, QuarantinedPointsCarryAReplayableRepro) {
  // One worker, so the sandbox forks from a single-threaded process.
  TempDir dir{"quarantine"};
  const std::string out = dir.file("results.json");
  ASSERT_EQ(run_cli({"sweep", "16", "3", "--d1", "1:2", "--d2", "1:2", "--sections", "4",
                     "--cyclic-priority", "--sandbox", "--test-crash", "d1=2/d2=1", "--out",
                     out}),
            8);
  const Json doc = Json::parse(slurp(out));
  const Json& points = doc.at("points");
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Json& p = points.at(i);
    if (p.at("status").as_string() == "ok") continue;
    Argv repro;
    std::string token;
    std::istringstream words{p.at("repro").as_string()};
    while (words >> token) repro.push_back(token);
    EXPECT_EQ(run_cli(repro), 0) << quoted(repro);
    ++replayed;
  }
  EXPECT_EQ(replayed, 1u);
}

TEST(CliArgs, ReportReadsNoAttributionAndWindow) {
  TempDir dir{"report"};
  const Argv base{"report", "13", "6", "1", "6"};
  ASSERT_EQ(run_cli(base, dir.file("full.json")), 0);
  ASSERT_EQ(run_cli(with(base, {"--no-attribution"}), dir.file("bare.json")), 0);
  ASSERT_EQ(run_cli(with(base, {"--window", "7"}), dir.file("w7.json")), 0);
  const std::string full = slurp(dir.file("full.json"));
  const std::string bare = slurp(dir.file("bare.json"));

  // Without attribution the block is null and everything before it is
  // byte-identical; only the wall-clock "perf" block follows it.
  const std::size_t at = full.find("\"attribution\": ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(bare.substr(0, at), full.substr(0, at));
  EXPECT_EQ(bare.compare(at, 21, "\"attribution\": null,\n"), 0) << bare.substr(at, 40);
  EXPECT_TRUE(Json::parse(bare).at("attribution").is_null());

  EXPECT_EQ(Json::parse(full).at("attribution").at("window").as_int(), 64);
  EXPECT_EQ(Json::parse(slurp(dir.file("w7.json"))).at("attribution").at("window").as_int(), 7);
}

TEST(CliArgs, UnparsableReplayAndFaultNamesAreConfigErrors) {
  EXPECT_EQ(run_cli({"fuzz", "--replay", "garbage"}), 3);
  EXPECT_EQ(run_cli({"fuzz", "--replay", "vpmem.fuzz/1 m=4 s=4 nc=1 color=red"}), 3);
  EXPECT_EQ(run_cli({"fuzz", "5", "--fault", "nosuch"}), 3);
}

}  // namespace
}  // namespace vpmem
