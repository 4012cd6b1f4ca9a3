#include "vpmem/sim/memory_system.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "vpmem/util/error.hpp"

namespace vpmem::sim {

namespace {
constexpr std::size_t kFree = static_cast<std::size_t>(-1);
}

MemorySystem::MemorySystem(MemoryConfig config, std::vector<StreamConfig> streams,
                           FaultPlan plan)
    : config_{(config.validate(), config)},
      plan_{std::move(plan)},
      bank_free_at_(static_cast<std::size_t>(config.banks), 0),
      bank_grants_(static_cast<std::size_t>(config.banks), 0),
      bank_owner_(static_cast<std::size_t>(config.banks), kFree),
      bank_claim_(static_cast<std::size_t>(config.banks), kFree) {
  plan_.validate(config_);
  const auto banks = static_cast<std::size_t>(config_.banks);
  bank_online_.assign(banks, 1);
  bank_nc_.assign(banks, config_.bank_cycle);
  bank_stall_until_.assign(banks, 0);
  surviving_ = lanes_ = config_.banks;
  bank_table_.resize(banks);
  std::iota(bank_table_.begin(), bank_table_.end(), i64{0});
  ports_.reserve(streams.size());
  for (const auto& s : streams) add_stream(s);
}

void MemorySystem::rebuild_surviving() {
  surviving_ = static_cast<i64>(std::count(bank_online_.begin(), bank_online_.end(), 1));
  if (plan_.policy != FaultPolicy::remap_spare) return;
  // The interleave collapses onto the m' surviving banks, ascending (onto
  // all m again once none survives: every request then stalls), and each
  // live port's cursor is re-derived from its progress counter (fault.hpp
  // documents this contract).
  lanes_ = 0;
  for (i64 j = 0; j < config_.banks; ++j) {
    if (surviving_ == 0 || bank_online_[static_cast<std::size_t>(j)] != 0) {
      bank_table_[static_cast<std::size_t>(lanes_++)] = j;
    }
  }
  for (const std::size_t idx : live_) aim(ports_[idx]);
}

void MemorySystem::aim(PortState& port) {
  const StreamConfig& s = port.cfg;
  if (!s.has_pattern()) {
    // Slot (b + issued*d) mod lanes, without the product overflowing.
    port.step = mod_norm(s.distance, lanes_);
    port.cursor = mod_norm(s.start_bank + port.step * (port.issued % lanes_), lanes_);
    port.end = lanes_;
    port.span = lanes_;
    return;
  }
  // Slot pattern[k] mod lanes, one table entry per pattern position.
  const i64 base = port.end - port.span;
  for (i64 k = 0; k < port.span; ++k) {
    const i64 slot = s.bank_pattern[static_cast<std::size_t>(k)] % lanes_;
    bank_table_[static_cast<std::size_t>(base + k)] = bank_table_[static_cast<std::size_t>(slot)];
  }
  port.step = 1;
  port.cursor = base + port.issued % port.span;
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

std::size_t MemorySystem::add_stream(const StreamConfig& stream) {
  stream.validate(config_);
  if (stream.start_cycle < now_) {
    throw Error{ErrorCode::config_invalid, "add_stream: start_cycle must not lie in the past"};
  }
  max_cpu_ = std::max(max_cpu_, stream.cpu);
  path_claim_.assign(static_cast<std::size_t>((max_cpu_ + 1) * config_.sections), kFree);
  PortState port;
  port.cfg = stream;
  // A pattern port's own slice of the bank table (aim() fills it; an
  // affine port's slice is empty and aim() points it at the lanes).
  port.span = static_cast<i64>(stream.bank_pattern.size());
  bank_table_.resize(bank_table_.size() + stream.bank_pattern.size());
  port.end = static_cast<i64>(bank_table_.size());
  aim(port);
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
  return bank_table_[static_cast<std::size_t>(p.cursor)];
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

    const i64 bank = bank_table_[static_cast<std::size_t>(port.cursor)];
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
    port.cursor += port.step;
    if (port.cursor >= port.end) port.cursor -= port.span;
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
  return {port.cursor, std::max<i64>(0, port.cfg.start_cycle - now_)};
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
  // counters the cursors are re-derived from (see the header).
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

}  // namespace vpmem::sim
