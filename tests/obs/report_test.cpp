// RunReport: schema round-trip, golden serialization, and the acceptance
// invariant that reported per-port counters exactly equal what a reference
// MemorySystem run reports via all_stats().
#include "vpmem/obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "vpmem/sim/fault.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/xmp/machine.hpp"

namespace vpmem::obs {
namespace {

/// Reference: rebuild the same run with a bare MemorySystem and return
/// its all_stats() over `cycles` periods.
std::vector<sim::PortStats> reference_stats(const sim::MemoryConfig& config,
                                            const std::vector<sim::StreamConfig>& streams,
                                            i64 cycles) {
  sim::MemorySystem mem{config, streams};
  mem.run(cycles, /*stop_when_finished=*/false);
  return mem.all_stats();
}

void expect_report_matches_all_stats(const sim::MemoryConfig& config,
                                     const std::vector<sim::StreamConfig>& streams) {
  const RunReport report = report_run(config, streams);
  const auto truth = reference_stats(config, streams, report.cycles);
  ASSERT_EQ(report.ports.size(), truth.size());
  for (std::size_t p = 0; p < truth.size(); ++p) {
    SCOPED_TRACE("port " + std::to_string(p));
    EXPECT_EQ(report.ports[p].grants, truth[p].grants);
    EXPECT_EQ(report.ports[p].bank_conflicts, truth[p].bank_conflicts);
    EXPECT_EQ(report.ports[p].simultaneous_conflicts, truth[p].simultaneous_conflicts);
    EXPECT_EQ(report.ports[p].section_conflicts, truth[p].section_conflicts);
  }
  const sim::ConflictTotals truth_totals = sim::totals(truth);
  EXPECT_EQ(report.conflicts.bank, truth_totals.bank);
  EXPECT_EQ(report.conflicts.simultaneous, truth_totals.simultaneous);
  EXPECT_EQ(report.conflicts.section, truth_totals.section);

  // The metrics block agrees with the counters, and every lost cycle
  // belongs to exactly one stall run (open runs included).
  const Json& metrics = report.metrics;
  i64 grants = 0;
  for (const auto& p : truth) grants += p.grants;
  EXPECT_EQ(metrics.at("grants").as_int(), grants);
  EXPECT_EQ(metrics.at("conflicts.bank").as_int(), truth_totals.bank);
  EXPECT_EQ(metrics.at("conflicts.simultaneous").as_int(), truth_totals.simultaneous);
  EXPECT_EQ(metrics.at("conflicts.section").as_int(), truth_totals.section);
  EXPECT_EQ(metrics.at("stall_length").at("sum").as_int(), truth_totals.total());
  EXPECT_EQ(metrics.at("bank_grants").at("sum").as_int(), grants);
  EXPECT_EQ(metrics.at("ports").as_array().size(), truth.size());
  // Leaving the attribution block out leaves the metrics alone.
  const RunReport plain = report_run(config, streams, {.attribution = false});
  EXPECT_TRUE(plain.attribution.is_null());
  EXPECT_EQ(plain.metrics, metrics);
}

TEST(RunReport, CountersMatchAllStatsOnFig2) {
  const sim::MemoryConfig config{.banks = 12, .sections = 12, .bank_cycle = 3};
  expect_report_matches_all_stats(config, sim::two_streams(0, 1, 3, 7));
}

TEST(RunReport, CountersMatchAllStatsOnFig3) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  expect_report_matches_all_stats(config, sim::two_streams(0, 1, 0, 6));
}

TEST(RunReport, CountersMatchAllStatsOnFig10Geometry) {
  const xmp::XmpConfig machine;
  std::vector<sim::StreamConfig> streams;
  for (i64 p = 0; p < 3; ++p) {
    streams.push_back(sim::StreamConfig{.start_bank = p * 4, .distance = 5, .cpu = 0});
  }
  for (const i64 b : machine.background_start_banks) {
    streams.push_back(sim::StreamConfig{.start_bank = b, .distance = 1, .cpu = 1});
  }
  expect_report_matches_all_stats(machine.memory, streams);
}

TEST(RunReport, SteadyStateSectionMatchesDetector) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  const auto streams = sim::two_streams(0, 1, 0, 6);
  const RunReport report = report_run(config, streams);
  EXPECT_EQ(report.kind, "steady_state");
  ASSERT_TRUE(report.steady_state.has_value());
  const sim::SteadyState ss = sim::find_steady_state(config, streams);
  EXPECT_EQ(report.steady_state->b_eff, ss.bandwidth);
  EXPECT_EQ(report.steady_state->period, ss.period);
  EXPECT_EQ(report.steady_state->transient_cycles, ss.transient_cycles);
  EXPECT_EQ(report.steady_state->grants_in_period, ss.grants_in_period);
  // Default window = transient + one full period.
  EXPECT_EQ(report.cycles, ss.transient_cycles + ss.period);
  EXPECT_GT(report.perf.cycles_simulated, 0);
}

TEST(RunReport, FiniteRun) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  auto streams = sim::two_streams(0, 1, 4, 3);
  for (auto& s : streams) s.length = 32;
  const RunReport report = report_run(config, streams);
  EXPECT_EQ(report.kind, "finite_run");
  EXPECT_FALSE(report.steady_state.has_value());
  EXPECT_GT(report.cycles, 0);
  i64 grants = 0;
  for (const auto& p : report.ports) grants += p.grants;
  EXPECT_EQ(grants, 64);  // both streams completed
  EXPECT_GT(report.window_bandwidth, 0.0);
}

TEST(RunReport, MixedWorkloadRejected) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  auto streams = sim::two_streams(0, 1, 4, 3);
  streams[0].length = 32;  // stream 1 stays infinite
  try {
    (void)report_run(config, streams);
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
  }
}

TEST(RunReport, GuardedRunCompletesWithFaultPlan) {
  const sim::MemoryConfig config{.banks = 12, .sections = 3, .bank_cycle = 3};
  auto streams = sim::two_streams(0, 1, 3, 7);
  for (auto& s : streams) s.length = 64;
  sim::FaultPlan plan;
  plan.policy = sim::FaultPolicy::remap_spare;
  plan.events = {
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_offline, .cycle = 16, .bank = 5},
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_online, .cycle = 96, .bank = 5}};
  const RunReport report = report_run_guarded(config, streams, plan);
  EXPECT_EQ(report.kind, "guarded_run");
  EXPECT_EQ(report.status, "completed");
  EXPECT_TRUE(report.status_detail.empty());
  ASSERT_EQ(report.fault_plan.events.size(), 2u);

  // Counters must reconcile with a bare MemorySystem run under the same
  // plan (the acceptance invariant, now including fault conflicts).
  sim::MemorySystem mem{config, streams, plan};
  mem.run(report.cycles, /*stop_when_finished=*/false);
  const auto truth = mem.all_stats();
  ASSERT_EQ(report.ports.size(), truth.size());
  for (std::size_t p = 0; p < truth.size(); ++p) {
    SCOPED_TRACE("port " + std::to_string(p));
    EXPECT_EQ(report.ports[p].grants, truth[p].grants);
    EXPECT_EQ(report.ports[p].bank_conflicts, truth[p].bank_conflicts);
    EXPECT_EQ(report.ports[p].simultaneous_conflicts, truth[p].simultaneous_conflicts);
    EXPECT_EQ(report.ports[p].section_conflicts, truth[p].section_conflicts);
    EXPECT_EQ(report.ports[p].fault_conflicts, truth[p].fault_conflicts);
  }

  // Attribution rides along and reconciles cycle-for-cycle.
  ASSERT_FALSE(report.attribution.is_null());
  const Json json = report.to_json();
  EXPECT_EQ(json.at("status").as_string(), "completed");
  EXPECT_FALSE(json.at("fault_plan").is_null());
  const RunReport back = RunReport::from_json(json);
  EXPECT_EQ(back.status, report.status);
  EXPECT_EQ(back.fault_plan.events.size(), report.fault_plan.events.size());
  EXPECT_EQ(back.to_json(), json);
}

TEST(RunReport, GuardedRunReportsDeadlineAsPartialReport) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 4};
  std::vector<sim::StreamConfig> streams{
      sim::StreamConfig{.start_bank = 0, .distance = 4, .length = 1000}};
  const sim::Watchdog dog{.max_cycles = 50};
  const RunReport report = report_run_guarded(config, streams, {}, {}, dog);
  EXPECT_EQ(report.status, "deadline_exceeded");
  EXPECT_FALSE(report.status_detail.empty());
  EXPECT_EQ(report.cycles, 50);
  EXPECT_GT(report.ports.at(0).grants, 0);  // partial progress, not a throw
}

TEST(RunReport, GuardedRunLivelockUnderPermanentOutage) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 2};
  std::vector<sim::StreamConfig> streams{
      sim::StreamConfig{.start_bank = 0, .distance = 1, .length = 64}};
  sim::FaultPlan plan;
  plan.policy = sim::FaultPolicy::stall;
  plan.events = {
      sim::FaultEvent{.kind = sim::FaultEvent::Kind::bank_offline, .cycle = 4, .bank = 4}};
  const RunReport report = report_run_guarded(config, streams, plan);
  EXPECT_EQ(report.status, "livelock");
  EXPECT_FALSE(report.status_detail.empty());
  EXPECT_EQ(report.ports.at(0).grants, 4);
  EXPECT_GT(report.conflicts.fault, 0);
}

TEST(RunReport, GuardedRunInfiniteStreamsNeedExplicitHorizon) {
  const sim::MemoryConfig config{.banks = 8, .sections = 8, .bank_cycle = 2};
  const std::vector<sim::StreamConfig> streams{sim::StreamConfig{.distance = 1}};
  try {
    (void)report_run_guarded(config, streams);
    FAIL() << "expected vpmem::Error";
  } catch (const vpmem::Error& e) {
    EXPECT_EQ(e.code(), vpmem::ErrorCode::config_invalid);
  }
  ReportOptions options;
  options.cycles = 96;
  const RunReport report = report_run_guarded(config, streams, {}, options);
  EXPECT_EQ(report.status, "completed");
  EXPECT_EQ(report.cycles, 96);
  EXPECT_EQ(report.ports.at(0).grants, 96);
}

TEST(RunReport, PreFaultDocumentsParseAsCompleted) {
  // Reports serialized before the fault model carry neither "status" nor
  // "fault_plan"; from_json must default them instead of throwing.
  RunReport report;
  report.kind = "finite_run";
  report.config = sim::MemoryConfig{.banks = 2, .sections = 2, .bank_cycle = 1};
  std::string text = report.to_json().dump();
  const auto drop = [&text](const std::string& member) {
    const std::size_t at = text.find(member);
    ASSERT_NE(at, std::string::npos) << member;
    text.erase(at, member.size());
  };
  drop("\"status\":\"completed\",");
  drop("\"fault_plan\":null,");
  const RunReport back = RunReport::from_json(Json::parse(text));
  EXPECT_EQ(back.status, "completed");
  EXPECT_TRUE(back.fault_plan.empty());
}

TEST(RunReport, JsonRoundTrip) {
  const sim::MemoryConfig config{.banks = 13, .sections = 13, .bank_cycle = 6};
  const RunReport report = report_run(config, sim::two_streams(0, 1, 0, 6));
  const Json first = report.to_json();
  const RunReport reparsed = RunReport::from_json(Json::parse(first.dump(2)));
  // A full round trip must reproduce the document bit-for-bit (shortest
  // round-trip double formatting makes this exact).
  EXPECT_EQ(reparsed.to_json(), first);
  EXPECT_EQ(reparsed.kind, report.kind);
  EXPECT_EQ(reparsed.streams.size(), report.streams.size());
  ASSERT_TRUE(reparsed.steady_state.has_value());
  EXPECT_EQ(reparsed.steady_state->b_eff, report.steady_state->b_eff);
}

TEST(RunReport, FromJsonRejectsWrongSchema) {
  Json doc = Json::object();
  doc["schema"] = "vpmem.run_report/999";
  EXPECT_THROW((void)RunReport::from_json(doc), std::runtime_error);
  EXPECT_THROW((void)RunReport::from_json(Json::object()), std::runtime_error);
}

TEST(RunReport, GoldenJson) {
  // Hand-built report with every field pinned: the serialized form is
  // the documented schema, so any change here is a schema change.
  RunReport report;
  report.kind = "finite_run";
  report.config = sim::MemoryConfig{.banks = 4, .sections = 2, .bank_cycle = 3};
  sim::StreamConfig stream;
  stream.start_bank = 1;
  stream.distance = 2;
  stream.length = 8;
  report.streams.push_back(stream);
  report.cycles = 10;
  sim::PortStats port;
  port.grants = 8;
  port.bank_conflicts = 2;
  port.first_grant_cycle = 0;
  port.last_grant_cycle = 9;
  port.longest_stall = 2;
  report.ports.push_back(port);
  report.conflicts.bank = 2;
  report.window_bandwidth = 0.8;
  report.bank_grants = {4, 0, 4, 0};
  report.bank_utilization = 0.5;
  report.hottest_bank = 0;
  report.metrics = Json{nullptr};
  report.perf.wall_seconds = 0.5;
  report.perf.cycles_simulated = 10;

  const std::string golden =
      "{\"schema\":\"vpmem.run_report/1\",\"kind\":\"finite_run\","
      "\"status\":\"completed\","
      "\"config\":{\"banks\":4,\"sections\":2,\"bank_cycle\":3,"
      "\"mapping\":\"cyclic\",\"priority\":\"fixed\"},"
      "\"streams\":[{\"start_bank\":1,\"distance\":2,\"cpu\":0,\"length\":8,"
      "\"start_cycle\":0,\"bank_pattern\":[]}],"
      "\"fault_plan\":null,"
      "\"window\":{\"cycles\":10,\"bandwidth\":0.8,"
      "\"conflicts\":{\"bank\":2,\"simultaneous\":0,\"section\":0,\"fault\":0,"
      "\"total\":2},"
      "\"bank_utilization\":0.5,\"hottest_bank\":0,\"bank_grants\":[4,0,4,0]},"
      "\"ports\":[{\"grants\":8,\"bank_conflicts\":2,\"simultaneous_conflicts\":0,"
      "\"section_conflicts\":0,\"fault_conflicts\":0,"
      "\"first_grant_cycle\":0,\"last_grant_cycle\":9,"
      "\"longest_stall\":2}],"
      "\"steady_state\":null,\"metrics\":null,\"attribution\":null,"
      "\"perf\":{\"wall_seconds\":0.5,\"cycles_simulated\":10,"
      "\"cycles_per_second\":20.0}}";
  EXPECT_EQ(report.to_json().dump(), golden);

  // And the golden text parses back into an equal report.
  const RunReport back = RunReport::from_json(Json::parse(golden));
  EXPECT_EQ(back.to_json().dump(), golden);
}

TEST(RunReport, WriteHelpers) {
  RunReport report;
  report.kind = "finite_run";
  report.config = sim::MemoryConfig{.banks = 2, .sections = 2, .bank_cycle = 1};
  std::ostringstream pretty;
  report.write_json(pretty);
  EXPECT_EQ(pretty.str().back(), '\n');
  EXPECT_NE(pretty.str().find("\"schema\": \"vpmem.run_report/1\""), std::string::npos);
  std::ostringstream lines;
  report.append_jsonl(lines);
  report.append_jsonl(lines);
  // Two self-contained lines.
  const std::string text = lines.str();
  const std::size_t first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  EXPECT_EQ(text.substr(0, first_newline),
            text.substr(first_newline + 1, text.size() - first_newline - 2));
  EXPECT_EQ(Json::parse(text.substr(0, first_newline)).at("kind").as_string(), "finite_run");
}

}  // namespace
}  // namespace vpmem::obs
