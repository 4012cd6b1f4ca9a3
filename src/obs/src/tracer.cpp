#include "vpmem/obs/tracer.hpp"

#include <array>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "vpmem/obs/report.hpp"

namespace vpmem::obs {

Tracer::Tracer(sim::MemorySystem& mem, TracerOptions options)
    : mem_{mem},
      options_{options},
      buffer_{options.capacity} {
  if (options_.attribution) {
    attribution_ = std::make_unique<ConflictAttribution>(
        mem.config(), AttributionOptions{.window = options_.window});
  }
  mem_.add_event_sink(*this);
  attached_ = true;
}

Tracer::~Tracer() { finish(); }

void Tracer::on_events(std::span<const sim::Event> events) {
  buffer_.push(events);
  if (attribution_) attribution_->on_events(events);
}

void Tracer::finish() {
  if (attached_) {
    mem_.remove_event_sink(*this);
    attached_ = false;
  }
  if (finished_) return;
  finished_ = true;
  if (attribution_) attribution_->finalize(mem_.now());
}

namespace {

/// Chrome trace-event pids: one synthetic process per track family.
constexpr i64 kBankPid = 1;
constexpr i64 kPortPid = 2;

Json meta_event(i64 pid, i64 tid, const char* what, std::string name) {
  Json::Object args;
  args.emplace_back("name", std::move(name));
  Json::Object e;
  e.reserve(5);
  e.emplace_back("ph", "M");
  e.emplace_back("name", what);
  e.emplace_back("pid", pid);
  e.emplace_back("tid", tid);
  e.emplace_back("args", std::move(args));
  return Json{std::move(e)};
}

std::string port_label(const sim::MemorySystem& mem, std::size_t p) {
  const sim::StreamConfig& s = mem.stream(p);
  std::ostringstream os;
  os << "port " << (p + 1) << " (cpu " << s.cpu;
  if (s.has_pattern()) {
    os << ", pattern[" << s.bank_pattern.size() << "]";
  } else {
    os << ", b=" << s.start_bank << ", d=" << s.distance;
  }
  os << ")";
  return os.str();
}

}  // namespace

// Every event's member list is built in final order with its exact size
// reserved, and every repeated name is built once per call: the export
// runs once per recorded event, so it does no key lookups and no
// per-event formatting.
Json Tracer::chrome_trace() {
  finish();
  const sim::MemoryConfig& cfg = mem_.config();
  const std::size_t ports = mem_.port_count();

  std::size_t grants = 0;
  buffer_.for_each([&](const sim::Event& e) { grants += e.type == sim::Event::Type::grant; });
  const std::size_t samples = attribution_ ? attribution_->bandwidth_series().size() : 0;
  Json::Array events;
  events.reserve(2 + static_cast<std::size_t>(cfg.banks) + ports + buffer_.size() + grants +
                 samples);

  // Track naming: one row per bank (labelled with its section, as in the
  // paper's Figs. 7-9) and one per port.
  events.push_back(meta_event(kBankPid, 0, "process_name", "banks"));
  for (i64 bank = 0; bank < cfg.banks; ++bank) {
    std::string name = "bank " + std::to_string(bank);
    if (cfg.sections != cfg.banks) {
      name += " (section " + std::to_string(cfg.section_of(bank)) + ")";
    }
    events.push_back(meta_event(kBankPid, bank, "thread_name", std::move(name)));
  }
  events.push_back(meta_event(kPortPid, 0, "process_name", "ports"));
  for (std::size_t p = 0; p < ports; ++p) {
    events.push_back(
        meta_event(kPortPid, static_cast<i64>(p), "thread_name", port_label(mem_, p)));
  }

  std::vector<std::string> port_names;
  port_names.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) port_names.push_back("port " + std::to_string(p + 1));
  std::array<std::string, sim::kConflictKinds> kinds;
  std::array<std::string, sim::kConflictKinds> conflict_names;
  for (std::size_t k = 0; k < sim::kConflictKinds; ++k) {
    kinds[k] = sim::to_string(static_cast<sim::ConflictKind>(k));
    conflict_names[k] = kinds[k] + " conflict";
  }

  buffer_.for_each([&](const sim::Event& e) {
    if (e.type == sim::Event::Type::grant) {
      // Service slice on the bank track (the bank stays active nc
      // periods) ...
      Json::Object args;
      args.reserve(2);
      args.emplace_back("port", e.port);
      args.emplace_back("element", e.element);
      Json::Object service;
      service.reserve(8);
      service.emplace_back("ph", "X");
      service.emplace_back("name", port_names[e.port]);
      service.emplace_back("cat", "service");
      service.emplace_back("pid", kBankPid);
      service.emplace_back("tid", e.bank);
      service.emplace_back("ts", e.cycle);
      service.emplace_back("dur", cfg.bank_cycle);
      service.emplace_back("args", std::move(args));
      events.emplace_back(std::move(service));
      // ... and a one-period transfer slice on the port track.
      Json::Object xargs;
      xargs.reserve(2);
      xargs.emplace_back("bank", e.bank);
      xargs.emplace_back("element", e.element);
      Json::Object xfer;
      xfer.reserve(8);
      xfer.emplace_back("ph", "X");
      xfer.emplace_back("name", "grant");
      xfer.emplace_back("cat", "grant");
      xfer.emplace_back("pid", kPortPid);
      xfer.emplace_back("tid", static_cast<i64>(e.port));
      xfer.emplace_back("ts", e.cycle);
      xfer.emplace_back("dur", 1);
      xfer.emplace_back("args", std::move(xargs));
      events.emplace_back(std::move(xfer));
      return;
    }
    // Conflict instant on the delayed port's track, carrying the full
    // attribution payload.
    const auto kind = static_cast<std::size_t>(e.conflict);
    Json::Object args;
    args.reserve(4);
    args.emplace_back("kind", kinds[kind]);
    args.emplace_back("bank", e.bank);
    args.emplace_back("element", e.element);
    args.emplace_back("blocker", e.blocker);
    Json::Object instant;
    instant.reserve(8);
    instant.emplace_back("ph", "i");
    instant.emplace_back("name", conflict_names[kind]);
    instant.emplace_back("cat", "conflict");
    instant.emplace_back("pid", kPortPid);
    instant.emplace_back("tid", static_cast<i64>(e.port));
    instant.emplace_back("ts", e.cycle);
    instant.emplace_back("s", "t");  // thread-scoped marker
    instant.emplace_back("args", std::move(args));
    events.emplace_back(std::move(instant));
  });

  // The live perf trajectory: windowed b_eff as a counter track.
  if (attribution_) {
    for (const BandwidthSample& s : attribution_->bandwidth_series()) {
      Json::Object args;
      args.emplace_back("grants_per_cycle", s.b_eff());
      Json::Object counter;
      counter.reserve(5);
      counter.emplace_back("ph", "C");
      counter.emplace_back("name", "b_eff");
      counter.emplace_back("pid", kPortPid);
      counter.emplace_back("ts", s.start);
      counter.emplace_back("args", std::move(args));
      events.emplace_back(std::move(counter));
    }
  }

  Json doc = Json::object();
  doc["schema"] = kTraceSchema;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(events);

  Json other = Json::object();
  other["config"] = json_of(cfg);
  other["ports"] = ports;
  other["cycles"] = mem_.now();
  other["events_recorded"] = buffer_.recorded();
  other["events_retained"] = buffer_.size();
  other["events_dropped"] = buffer_.dropped();
  other["first_retained_cycle"] = buffer_.first_cycle();
  other["time_unit"] = "1 trace us = 1 clock period";
  other["attribution"] = attribution_ ? attribution_->to_json() : Json{};
  doc["otherData"] = std::move(other);
  return doc;
}

void Tracer::write_chrome_trace(std::ostream& os) {
  chrome_trace().dump(os, 1);
  os << '\n';
}

void Tracer::save_chrome_trace(const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"Tracer::save_chrome_trace: cannot open '" + path + "'"};
  write_chrome_trace(out);
}

}  // namespace vpmem::obs
