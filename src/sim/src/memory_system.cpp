#include "vpmem/sim/memory_system.hpp"

#include <algorithm>
#include <stdexcept>

#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {
constexpr std::size_t kFree = static_cast<std::size_t>(-1);
}

MemorySystem::MemorySystem(MemoryConfig config, std::vector<StreamConfig> streams,
                           FaultPlan plan)
    : config_{config},
      plan_{std::move(plan)},
      bank_free_at_(static_cast<std::size_t>(config.banks), 0),
      bank_grants_(static_cast<std::size_t>(config.banks), 0),
      bank_owner_(static_cast<std::size_t>(config.banks), kFree),
      bank_claim_(static_cast<std::size_t>(config.banks), kFree) {
  config_.validate();
  plan_.validate(config_);
  init_fault_state();
  ports_.reserve(streams.size());
  for (const auto& s : streams) add_stream(s);
}

MemorySystem::MemorySystem(const SystemState& state)
    : MemorySystem{state.config, state.streams, state.plan} {
  if (state.issued.size() != ports_.size() || state.stats.size() != ports_.size()) {
    throw Error{ErrorCode::config_invalid,
                "MemorySystem: checkpoint port vectors disagree with streams"};
  }
  const auto banks = static_cast<std::size_t>(config_.banks);
  if (state.bank_free_at.size() != banks || state.bank_grants.size() != banks ||
      state.bank_owner.size() != banks) {
    throw Error{ErrorCode::config_invalid,
                "MemorySystem: checkpoint bank vectors disagree with config"};
  }
  live_.clear();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i].issued = state.issued[i];
    ports_[i].stats = state.stats[i];
    if (!ports_[i].done()) live_.push_back(i);
  }
  bank_free_at_ = state.bank_free_at;
  bank_grants_ = state.bank_grants;
  for (std::size_t j = 0; j < banks; ++j) {
    bank_owner_[j] =
        state.bank_owner[j] < 0 ? kFree : static_cast<std::size_t>(state.bank_owner[j]);
  }
  now_ = state.now;
  rr_ = static_cast<std::size_t>(state.rr);
  if (state.plan_cursor < 0 || state.plan_cursor > static_cast<i64>(plan_.events.size())) {
    throw Error{ErrorCode::config_invalid, "MemorySystem: checkpoint plan cursor out of range"};
  }
  plan_cursor_ = static_cast<std::size_t>(state.plan_cursor);
  if (!state.bank_online.empty()) {
    if (state.bank_online.size() != banks || state.bank_nc.size() != banks ||
        state.bank_stall_until.size() != banks) {
      throw Error{ErrorCode::config_invalid,
                  "MemorySystem: checkpoint fault vectors disagree with config"};
    }
    bank_online_ = state.bank_online;
    bank_nc_ = state.bank_nc;
    bank_stall_until_ = state.bank_stall_until;
    paths_down_ = state.paths_down;
    rebuild_surviving();
  }
}

void MemorySystem::init_fault_state() {
  const auto banks = static_cast<std::size_t>(config_.banks);
  bank_online_.assign(banks, 1);
  bank_nc_.assign(banks, config_.bank_cycle);
  bank_stall_until_.assign(banks, 0);
  paths_down_.clear();
  plan_cursor_ = 0;
  rebuild_surviving();
}

void MemorySystem::rebuild_surviving() {
  surviving_.clear();
  for (std::size_t j = 0; j < bank_online_.size(); ++j) {
    if (bank_online_[j] != 0) surviving_.push_back(static_cast<i64>(j));
  }
}

void MemorySystem::apply_due_faults() {
  bool topology_changed = false;
  while (plan_cursor_ < plan_.events.size() &&
         plan_.events[plan_cursor_].cycle <= now_) {
    const FaultEvent& e = plan_.events[plan_cursor_++];
    const auto bank_u = static_cast<std::size_t>(e.bank);
    switch (e.kind) {
      case FaultEvent::Kind::bank_offline:
        topology_changed = topology_changed || bank_online_[bank_u] != 0;
        bank_online_[bank_u] = 0;
        break;
      case FaultEvent::Kind::bank_online:
        topology_changed = topology_changed || bank_online_[bank_u] == 0;
        bank_online_[bank_u] = 1;
        break;
      case FaultEvent::Kind::bank_slow: bank_nc_[bank_u] = e.value; break;
      case FaultEvent::Kind::bank_stall:
        bank_stall_until_[bank_u] = std::max(bank_stall_until_[bank_u], e.cycle + e.value);
        break;
      case FaultEvent::Kind::path_offline: {
        const auto path = std::make_pair(e.cpu, e.section);
        if (std::find(paths_down_.begin(), paths_down_.end(), path) == paths_down_.end()) {
          paths_down_.push_back(path);
        }
        break;
      }
      case FaultEvent::Kind::path_online: {
        const auto path = std::make_pair(e.cpu, e.section);
        const auto it = std::find(paths_down_.begin(), paths_down_.end(), path);
        if (it != paths_down_.end()) paths_down_.erase(it);
        break;
      }
    }
  }
  if (topology_changed) rebuild_surviving();
}

bool MemorySystem::bank_online(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"bank_online: bank out of range"};
  }
  return bank_online_[static_cast<std::size_t>(bank)] != 0;
}

bool MemorySystem::path_down(i64 cpu, i64 section) const {
  // Linear scan: concurrent path outages are rare and few.
  for (const auto& [c, s] : paths_down_) {
    if (c == cpu && s == section) return true;
  }
  return false;
}

i64 MemorySystem::effective_bank(const PortState& port) const {
  const i64 raw = port.cfg.bank_of(port.issued, config_.banks);
  if (plan_.policy != FaultPolicy::remap_spare) return raw;
  const i64 alive = static_cast<i64>(surviving_.size());
  if (alive == config_.banks || alive == 0) return raw;
  // The interleave collapses onto the m' surviving banks: the stream's
  // bank sequence is re-addressed mod m' and looked up in the ascending
  // surviving list (fault.hpp documents this contract).
  const i64 slot = port.cfg.has_pattern()
                       ? mod_norm(port.cfg.bank_of(port.issued, config_.banks), alive)
                       : mod_norm(port.cfg.start_bank + port.issued * port.cfg.distance, alive);
  return surviving_[static_cast<std::size_t>(slot)];
}

std::size_t MemorySystem::add_stream(const StreamConfig& stream) {
  stream.validate(config_);
  if (stream.start_cycle < now_) {
    throw Error{ErrorCode::config_invalid, "add_stream: start_cycle must not lie in the past"};
  }
  max_cpu_ = std::max(max_cpu_, stream.cpu);
  path_claim_.assign(static_cast<std::size_t>((max_cpu_ + 1) * config_.sections), kFree);
  PortState port;
  port.cfg = stream;
  ports_.push_back(std::move(port));
  const std::size_t idx = ports_.size() - 1;
  if (!ports_[idx].done()) live_.push_back(idx);
  return idx;
}

const StreamConfig& MemorySystem::stream(std::size_t port) const { return ports_.at(port).cfg; }

std::vector<PortStats> MemorySystem::all_stats() const {
  std::vector<PortStats> out;
  out.reserve(ports_.size());
  for (const auto& p : ports_) out.push_back(p.stats);
  return out;
}

i64 MemorySystem::elements_done(std::size_t port) const { return ports_.at(port).issued; }

std::optional<i64> MemorySystem::next_bank(std::size_t port) const {
  const PortState& p = ports_.at(port);
  if (p.done()) return std::nullopt;
  return effective_bank(p);
}

i64 MemorySystem::bank_busy(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) throw std::out_of_range{"bank_busy: bank out of range"};
  return std::max<i64>(0, bank_free_at_[static_cast<std::size_t>(bank)] - now_);
}

i64 MemorySystem::bank_grants(i64 bank) const {
  if (bank < 0 || bank >= config_.banks) {
    throw std::out_of_range{"bank_grants: bank out of range"};
  }
  return bank_grants_[static_cast<std::size_t>(bank)];
}

double MemorySystem::bank_utilization() const {
  if (now_ == 0) return 0.0;
  i64 busy = 0;
  for (std::size_t j = 0; j < bank_grants_.size(); ++j) {
    // Grants keep a bank active nc periods each; clip the still-running
    // tail of the latest service at now().  Slow-bank faults can inflate
    // a single service beyond nc, so the per-bank figure is additionally
    // clipped at zero (utilization is approximate under bank_slow).
    busy += std::max<i64>(
        0, bank_grants_[j] * config_.bank_cycle - std::max<i64>(0, bank_free_at_[j] - now_));
  }
  return static_cast<double>(busy) / static_cast<double>(config_.banks * now_);
}

i64 MemorySystem::hottest_bank() const {
  std::size_t best = 0;
  for (std::size_t j = 1; j < bank_grants_.size(); ++j) {
    if (bank_grants_[j] > bank_grants_[best]) best = j;
  }
  return static_cast<i64>(best);
}

bool MemorySystem::finished() const noexcept { return live_.empty(); }

void MemorySystem::add_event_sink(EventSink& sink) {
  if (std::find(sinks_.list.begin(), sinks_.list.end(), &sink) != sinks_.list.end()) {
    throw std::invalid_argument{"add_event_sink: sink already attached"};
  }
  sinks_.list.push_back(&sink);
}

void MemorySystem::remove_event_sink(const EventSink& sink) {
  const auto it = std::find(sinks_.list.begin(), sinks_.list.end(), &sink);
  if (it != sinks_.list.end()) sinks_.list.erase(it);
}

void MemorySystem::step() {
  if (plan_cursor_ < plan_.events.size()) apply_due_faults();
  if (ports_.empty()) {  // ports may be injected later via add_stream
    ++now_;
    return;
  }
  for (const auto& [bank, path] : claimed_) {
    bank_claim_[bank] = kFree;
    path_claim_[path] = kFree;
  }
  claimed_.clear();

  // Priority order over all ports starts at `first` and wraps.  Finished
  // ports never request again, so visiting just the live ones, from the
  // first live index >= first and wrapping, keeps the order of the rest.
  const std::size_t first =
      (config_.priority == PriorityRule::cyclic) ? rr_ % ports_.size() : 0;
  const std::size_t live = live_.size();
  const auto begin =
      first == 0 ? std::size_t{0}
                 : static_cast<std::size_t>(
                       std::lower_bound(live_.begin(), live_.end(), first) - live_.begin());
  bool retired = false;
  // Each event is built in place in step_events_, so the sinks get the
  // step's events without a copy.
  if (step_events_.size() < live) step_events_.resize(live);
  std::size_t events = 0;

  for (std::size_t i = 0; i < live; ++i) {
    const std::size_t pos = begin + i < live ? begin + i : begin + i - live;
    const std::size_t idx = live_[pos];
    PortState& port = ports_[idx];
    if (now_ < port.cfg.start_cycle) continue;

    const i64 bank = effective_bank(port);
    const auto bank_u = static_cast<std::size_t>(bank);

    Event& ev = step_events_[events++];
    ev = Event{.type = Event::Type::conflict,
               .cycle = now_,
               .port = idx,
               .bank = bank,
               .element = port.issued,
               .conflict = ConflictKind::bank,
               .blocker = idx};

    // (0) Injected faults pin the request before any arbitration: the
    //     target bank is offline (stall policy, or remap with no survivor
    //     left), sits inside a transient stall window, or the access path
    //     is down.  Kind `fault`, blocker = the requester itself.
    if (bank_online_[bank_u] == 0 || now_ < bank_stall_until_[bank_u] ||
        (!paths_down_.empty() && path_down(port.cfg.cpu, config_.section_of(bank)))) {
      ev.conflict = ConflictKind::fault;
      ++port.stats.fault_conflicts;
      port.stats.longest_stall = std::max(port.stats.longest_stall, ++port.stats.current_stall);
      continue;
    }

    // (1) Claimed this very period by a higher-priority port: a
    //     simultaneous bank conflict if the winner sits on another CPU
    //     (different access path), a section conflict otherwise.
    if (bank_claim_[bank_u] != kFree) {
      const std::size_t winner = bank_claim_[bank_u];
      ev.blocker = winner;
      ev.conflict = (ports_[winner].cfg.cpu == port.cfg.cpu) ? ConflictKind::section
                                                             : ConflictKind::simultaneous;
      if (ev.conflict == ConflictKind::section) {
        ++port.stats.section_conflicts;
      } else {
        ++port.stats.simultaneous_conflicts;
      }
      port.stats.longest_stall = std::max(port.stats.longest_stall, ++port.stats.current_stall);
      continue;
    }

    // (2) Bank still active from an earlier period: plain bank conflict.
    //     The blocker is the port whose grant keeps the bank busy (the
    //     requester itself for a self conflict).
    if (bank_free_at_[bank_u] > now_) {
      ev.conflict = ConflictKind::bank;
      ev.blocker = bank_owner_[bank_u];
      ++port.stats.bank_conflicts;
      port.stats.longest_stall = std::max(port.stats.longest_stall, ++port.stats.current_stall);
      continue;
    }

    // (3) Access path (CPU, section) already used this period.
    const auto path = static_cast<std::size_t>(port.cfg.cpu * config_.sections +
                                               config_.section_of(bank));
    if (path_claim_[path] != kFree) {
      ev.blocker = path_claim_[path];
      ev.conflict = ConflictKind::section;
      ++port.stats.section_conflicts;
      port.stats.longest_stall = std::max(port.stats.longest_stall, ++port.stats.current_stall);
      continue;
    }

    // Grant.
    bank_claim_[bank_u] = idx;
    path_claim_[path] = idx;
    claimed_.emplace_back(bank_u, path);
    bank_free_at_[bank_u] = now_ + bank_nc_[bank_u];
    bank_owner_[bank_u] = idx;
    ++bank_grants_[bank_u];
    ++port.stats.grants;
    port.stats.current_stall = 0;
    if (port.stats.first_grant_cycle < 0) port.stats.first_grant_cycle = now_;
    port.stats.last_grant_cycle = now_;
    ev.type = Event::Type::grant;
    ev.blocker = idx;
    ++port.issued;
    retired = retired || port.done();
  }

  if (retired) {
    live_.erase(std::remove_if(live_.begin(), live_.end(),
                               [this](std::size_t idx) { return ports_[idx].done(); }),
                live_.end());
  }
  if (events > 0) {
    for (EventSink* sink : sinks_.list) sink->on_events({step_events_.data(), events});
  }
  ++now_;
  if (config_.priority == PriorityRule::cyclic && !ports_.empty()) {
    rr_ = (rr_ + 1) % ports_.size();
  }
}

i64 MemorySystem::run(i64 cycles, bool stop_when_finished) {
  i64 done = 0;
  for (; done < cycles; ++done) {
    if (stop_when_finished && finished()) break;
    step();
  }
  return done;
}

std::pair<i64, i64> MemorySystem::phase_of(const PortState& port) const {
  if (port.done()) return {-2, 0};
  const i64 wait = std::max<i64>(0, port.cfg.start_cycle - now_);
  if (port.cfg.has_pattern()) {
    // Pattern phase fully determines the future; offset past the bank
    // address domain so affine and pattern phases cannot collide.
    return {config_.banks + port.issued % static_cast<i64>(port.cfg.bank_pattern.size()), wait};
  }
  return {port.cfg.bank_of(port.issued, config_.banks), wait};
}

bool MemorySystem::same_state(const MemorySystem& other) const {
  if (ports_.size() != other.ports_.size() ||
      bank_free_at_.size() != other.bank_free_at_.size() ||
      plan_.empty() != other.plan_.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (phase_of(ports_[i]) != other.phase_of(other.ports_[i])) return false;
  }
  if (!ports_.empty() && rr_ % ports_.size() != other.rr_ % ports_.size()) return false;
  const auto busy = [](i64 until, i64 now) { return std::max<i64>(0, until - now); };
  for (std::size_t j = 0; j < bank_free_at_.size(); ++j) {
    if (busy(bank_free_at_[j], now_) != busy(other.bank_free_at_[j], other.now_)) return false;
  }
  if (plan_.empty()) return true;
  // A fault plan makes the future depend on absolute time (pending
  // events), the dynamic fault state and, under remap, the raw progress
  // counters (see the header).
  const auto pending = [](const MemorySystem& s) { return s.plan_.events.size() - s.plan_cursor_; };
  const auto next_due = [](const MemorySystem& s) {
    return s.plan_cursor_ < s.plan_.events.size() ? s.plan_.events[s.plan_cursor_].cycle - s.now_
                                                  : 0;
  };
  if (pending(*this) != pending(other) || next_due(*this) != next_due(other)) return false;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].issued != other.ports_[i].issued) return false;
  }
  if (bank_online_ != other.bank_online_ || bank_nc_ != other.bank_nc_) return false;
  for (std::size_t j = 0; j < bank_stall_until_.size(); ++j) {
    if (busy(bank_stall_until_[j], now_) != busy(other.bank_stall_until_[j], other.now_)) {
      return false;
    }
  }
  return paths_down_ == other.paths_down_;
}

SystemState MemorySystem::checkpoint() const {
  SystemState st;
  st.config = config_;
  st.plan = plan_;
  st.streams.reserve(ports_.size());
  st.issued.reserve(ports_.size());
  st.stats.reserve(ports_.size());
  for (const auto& p : ports_) {
    st.streams.push_back(p.cfg);
    st.issued.push_back(p.issued);
    st.stats.push_back(p.stats);
  }
  st.bank_free_at = bank_free_at_;
  st.bank_grants = bank_grants_;
  st.bank_owner.reserve(bank_owner_.size());
  for (std::size_t owner : bank_owner_) {
    st.bank_owner.push_back(owner == kFree ? -1 : static_cast<i64>(owner));
  }
  st.now = now_;
  st.rr = static_cast<i64>(rr_);
  st.plan_cursor = static_cast<i64>(plan_cursor_);
  if (!plan_.empty()) {
    st.bank_online = bank_online_;
    st.bank_nc = bank_nc_;
    st.bank_stall_until = bank_stall_until_;
    st.paths_down = paths_down_;
  }
  return st;
}

namespace {

[[noreturn]] void bad_checkpoint(const std::string& what) {
  throw Error{ErrorCode::config_invalid, "SystemState: " + what};
}

Json json_of_i64s(const std::vector<i64>& values) {
  Json out = Json::array();
  for (const i64 v : values) out.push_back(v);
  return out;
}

std::vector<i64> i64s_from_json(const Json& json) {
  std::vector<i64> out;
  for (const Json& v : json.as_array()) out.push_back(v.as_int());
  return out;
}

}  // namespace

Json SystemState::to_json() const {
  Json out = Json::object();
  out["schema"] = kCheckpointSchema;

  Json cfg = Json::object();
  cfg["banks"] = config.banks;
  cfg["sections"] = config.sections;
  cfg["bank_cycle"] = config.bank_cycle;
  cfg["mapping"] = to_string(config.mapping);
  cfg["priority"] = to_string(config.priority);
  out["config"] = std::move(cfg);

  out["fault_plan"] = plan.to_json();

  Json stream_list = Json::array();
  for (const StreamConfig& s : streams) {
    Json entry = Json::object();
    entry["start_bank"] = s.start_bank;
    entry["distance"] = s.distance;
    entry["cpu"] = s.cpu;
    entry["length"] = s.length == kInfiniteLength ? Json{nullptr} : Json{s.length};
    entry["start_cycle"] = s.start_cycle;
    entry["bank_pattern"] = json_of_i64s(s.bank_pattern);
    stream_list.push_back(std::move(entry));
  }
  out["streams"] = std::move(stream_list);

  out["issued"] = json_of_i64s(issued);
  Json stat_list = Json::array();
  for (const PortStats& p : stats) {
    Json entry = Json::object();
    entry["grants"] = p.grants;
    entry["bank_conflicts"] = p.bank_conflicts;
    entry["simultaneous_conflicts"] = p.simultaneous_conflicts;
    entry["section_conflicts"] = p.section_conflicts;
    entry["fault_conflicts"] = p.fault_conflicts;
    entry["first_grant_cycle"] = p.first_grant_cycle;
    entry["last_grant_cycle"] = p.last_grant_cycle;
    entry["longest_stall"] = p.longest_stall;
    entry["current_stall"] = p.current_stall;
    stat_list.push_back(std::move(entry));
  }
  out["stats"] = std::move(stat_list);

  out["bank_free_at"] = json_of_i64s(bank_free_at);
  out["bank_grants"] = json_of_i64s(bank_grants);
  out["bank_owner"] = json_of_i64s(bank_owner);
  out["now"] = now;
  out["rr"] = rr;
  out["plan_cursor"] = plan_cursor;

  std::vector<i64> online;
  online.reserve(bank_online.size());
  for (const std::uint8_t b : bank_online) online.push_back(b);
  out["bank_online"] = json_of_i64s(online);
  out["bank_nc"] = json_of_i64s(bank_nc);
  out["bank_stall_until"] = json_of_i64s(bank_stall_until);
  Json paths = Json::array();
  for (const auto& [c, s] : paths_down) {
    Json entry = Json::object();
    entry["cpu"] = c;
    entry["section"] = s;
    paths.push_back(std::move(entry));
  }
  out["paths_down"] = std::move(paths);
  return out;
}

SystemState SystemState::from_json(const Json& json) {
  try {
    if (!json.contains("schema") || json.at("schema").as_string() != kCheckpointSchema) {
      bad_checkpoint("unknown or missing schema");
    }
    SystemState st;
    const Json& cfg = json.at("config");
    st.config.banks = cfg.at("banks").as_int();
    st.config.sections = cfg.at("sections").as_int();
    st.config.bank_cycle = cfg.at("bank_cycle").as_int();
    const std::string mapping = cfg.at("mapping").as_string();
    if (mapping == to_string(SectionMapping::consecutive)) {
      st.config.mapping = SectionMapping::consecutive;
    } else if (mapping != to_string(SectionMapping::cyclic)) {
      bad_checkpoint("unknown section mapping '" + mapping + "'");
    }
    const std::string priority = cfg.at("priority").as_string();
    if (priority == to_string(PriorityRule::cyclic)) {
      st.config.priority = PriorityRule::cyclic;
    } else if (priority != to_string(PriorityRule::fixed)) {
      bad_checkpoint("unknown priority rule '" + priority + "'");
    }

    st.plan = FaultPlan::from_json(json.at("fault_plan"));

    for (const Json& s : json.at("streams").as_array()) {
      StreamConfig stream;
      stream.start_bank = s.at("start_bank").as_int();
      stream.distance = s.at("distance").as_int();
      stream.cpu = s.at("cpu").as_int();
      stream.length = s.at("length").is_null() ? kInfiniteLength : s.at("length").as_int();
      stream.start_cycle = s.at("start_cycle").as_int();
      stream.bank_pattern = i64s_from_json(s.at("bank_pattern"));
      st.streams.push_back(std::move(stream));
    }

    st.issued = i64s_from_json(json.at("issued"));
    for (const Json& p : json.at("stats").as_array()) {
      PortStats stats;
      stats.grants = p.at("grants").as_int();
      stats.bank_conflicts = p.at("bank_conflicts").as_int();
      stats.simultaneous_conflicts = p.at("simultaneous_conflicts").as_int();
      stats.section_conflicts = p.at("section_conflicts").as_int();
      stats.fault_conflicts = p.at("fault_conflicts").as_int();
      stats.first_grant_cycle = p.at("first_grant_cycle").as_int();
      stats.last_grant_cycle = p.at("last_grant_cycle").as_int();
      stats.longest_stall = p.at("longest_stall").as_int();
      stats.current_stall = p.at("current_stall").as_int();
      st.stats.push_back(stats);
    }

    st.bank_free_at = i64s_from_json(json.at("bank_free_at"));
    st.bank_grants = i64s_from_json(json.at("bank_grants"));
    st.bank_owner = i64s_from_json(json.at("bank_owner"));
    st.now = json.at("now").as_int();
    st.rr = json.at("rr").as_int();
    st.plan_cursor = json.at("plan_cursor").as_int();
    for (const i64 b : i64s_from_json(json.at("bank_online"))) {
      st.bank_online.push_back(b != 0 ? 1 : 0);
    }
    st.bank_nc = i64s_from_json(json.at("bank_nc"));
    st.bank_stall_until = i64s_from_json(json.at("bank_stall_until"));
    for (const Json& p : json.at("paths_down").as_array()) {
      st.paths_down.emplace_back(p.at("cpu").as_int(), p.at("section").as_int());
    }
    return st;
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {  // missing member / wrong type
    bad_checkpoint(std::string{"malformed document: "} + e.what());
  }
}

}  // namespace vpmem::sim
