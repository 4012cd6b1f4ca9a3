#include "vpmem/check/replay.hpp"

#include <sstream>

#include "vpmem/util/error.hpp"

namespace vpmem::check {

namespace {

std::string encode_stream(const sim::StreamConfig& s) {
  std::ostringstream os;
  os << "stream=";
  if (s.has_pattern()) {
    os << 'p';
    for (std::size_t i = 0; i < s.bank_pattern.size(); ++i) {
      os << (i == 0 ? "" : ":") << s.bank_pattern[i];
    }
  } else {
    os << 'b' << s.start_bank << ",d" << s.distance;
  }
  os << ",c" << s.cpu << ",l";
  if (s.length == sim::kInfiniteLength) {
    os << "inf";
  } else {
    os << s.length;
  }
  os << ",t" << s.start_cycle;
  return os.str();
}

/// Every malformed repro is a bad run configuration.
[[noreturn]] void reject(const std::string& message) {
  throw Error{ErrorCode::config_invalid, "parse_repro: " + message};
}

i64 parse_i64(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  i64 value = 0;
  try {
    value = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size()) reject("bad " + what + " '" + text + "'");
  return value;
}

sim::StreamConfig parse_stream(const std::string& body) {
  sim::StreamConfig s;
  std::istringstream fields{body};
  std::string field;
  bool have_banks = false;
  while (std::getline(fields, field, ',')) {
    if (field.empty()) reject("empty stream field");
    const char tag = field[0];
    const std::string value = field.substr(1);
    switch (tag) {
      case 'b':
        s.start_bank = parse_i64(value, "start bank");
        have_banks = true;
        break;
      case 'd': s.distance = parse_i64(value, "distance"); break;
      case 'p': {
        std::istringstream entries{value};
        std::string entry;
        s.bank_pattern.clear();
        while (std::getline(entries, entry, ':')) {
          s.bank_pattern.push_back(parse_i64(entry, "pattern entry"));
        }
        if (s.bank_pattern.empty()) {
          reject("empty bank pattern");
        }
        have_banks = true;
        break;
      }
      case 'c': s.cpu = parse_i64(value, "cpu"); break;
      case 'l':
        s.length = value == "inf" ? sim::kInfiniteLength : parse_i64(value, "length");
        break;
      case 't': s.start_cycle = parse_i64(value, "start cycle"); break;
      default:
        reject(std::string{"unknown stream field '"} + tag + "'");
    }
  }
  if (!have_banks) {
    reject("stream needs b<bank>,d<dist> or p<pattern>");
  }
  return s;
}

}  // namespace

std::string encode_repro(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  os << kReproSchema << " m=" << fuzz_case.config.banks << " s=" << fuzz_case.config.sections
     << " nc=" << fuzz_case.config.bank_cycle
     << " map=" << sim::to_string(fuzz_case.config.mapping)
     << " prio=" << sim::to_string(fuzz_case.config.priority)
     << " cycles=" << fuzz_case.cycles << " fault=" << to_string(fuzz_case.fault);
  // FaultPlan::encode() is whitespace-free, so the plan stays one token.
  if (!fuzz_case.plan.empty()) os << " fplan=" << fuzz_case.plan.encode();
  for (const auto& s : fuzz_case.streams) os << ' ' << encode_stream(s);
  return os.str();
}

FuzzCase parse_repro(const std::string& line) {
  std::istringstream tokens{line};
  std::string token;
  if (!(tokens >> token) || token != kReproSchema) {
    reject(std::string{"expected leading '"} + kReproSchema + "'");
  }
  FuzzCase out;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      reject("token without '=': '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "m") {
      out.config.banks = parse_i64(value, "bank count");
    } else if (key == "s") {
      out.config.sections = parse_i64(value, "section count");
    } else if (key == "nc") {
      out.config.bank_cycle = parse_i64(value, "bank cycle");
    } else if (key == "map") {
      if (value == "cyclic") {
        out.config.mapping = sim::SectionMapping::cyclic;
      } else if (value == "consecutive") {
        out.config.mapping = sim::SectionMapping::consecutive;
      } else {
        reject("unknown mapping '" + value + "'");
      }
    } else if (key == "prio") {
      if (value == "fixed") {
        out.config.priority = sim::PriorityRule::fixed;
      } else if (value == "cyclic") {
        out.config.priority = sim::PriorityRule::cyclic;
      } else {
        reject("unknown priority '" + value + "'");
      }
    } else if (key == "cycles") {
      out.cycles = parse_i64(value, "cycle budget");
    } else if (key == "fault") {
      out.fault = fault_from_string(value);
    } else if (key == "fplan") {
      out.plan = sim::FaultPlan::parse(value);
    } else if (key == "stream") {
      out.streams.push_back(parse_stream(value));
    } else {
      reject("unknown key '" + key + "'");
    }
  }
  out.config.validate();
  for (const auto& s : out.streams) s.validate(out.config);
  out.plan.validate(out.config);
  return out;
}

FuzzCase shrink_case(const FuzzCase& fuzz_case,
                     const std::function<bool(const FuzzCase&)>& still_fails) {
  FuzzCase current = fuzz_case;

  // Drop streams one at a time until no single removal keeps the failure.
  bool progress = true;
  while (progress && current.streams.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < current.streams.size(); ++i) {
      FuzzCase candidate = current;
      candidate.streams.erase(candidate.streams.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }

  // Drop fault-plan events one at a time (a whole-plan drop first —
  // most failures are not fault-induced and shed the plan in one step).
  if (!current.plan.empty()) {
    FuzzCase candidate = current;
    candidate.plan = sim::FaultPlan{};
    if (still_fails(candidate)) current = std::move(candidate);
  }
  progress = true;
  while (progress && !current.plan.empty()) {
    progress = false;
    for (std::size_t i = 0; i < current.plan.events.size(); ++i) {
      FuzzCase candidate = current;
      candidate.plan.events.erase(candidate.plan.events.begin() +
                                  static_cast<std::ptrdiff_t>(i));
      if (still_fails(candidate)) {
        current = std::move(candidate);
        progress = true;
        break;
      }
    }
  }

  // Halve the cycle budget while the failure persists.
  while (current.cycles > 8) {
    FuzzCase candidate = current;
    candidate.cycles = current.cycles / 2;
    if (!still_fails(candidate)) break;
    current = std::move(candidate);
  }

  // Remove delayed starts where they are not load-bearing.
  for (std::size_t i = 0; i < current.streams.size(); ++i) {
    if (current.streams[i].start_cycle == 0) continue;
    FuzzCase candidate = current;
    candidate.streams[i].start_cycle = 0;
    if (still_fails(candidate)) current = std::move(candidate);
  }
  return current;
}

}  // namespace vpmem::check
