#include "vpmem/trace/timeline.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace vpmem::trace {

Timeline::Timeline(sim::MemorySystem& mem) : mem_{mem} { mem_.add_event_sink(*this); }

Timeline::~Timeline() { mem_.remove_event_sink(*this); }

namespace {

/// Digit for a port: streams are numbered 1-based as in the paper.
char port_digit(std::size_t port) {
  return (port < 9) ? static_cast<char>('1' + port) : '#';
}

}  // namespace

std::vector<std::string> Timeline::grid(i64 from, i64 to) const {
  if (from < 0 || to < from) throw std::invalid_argument{"Timeline::grid: bad window"};
  const i64 m = mem_.config().banks;
  const i64 nc = mem_.config().bank_cycle;
  const auto width = static_cast<std::size_t>(to - from);
  std::vector<std::string> rows(static_cast<std::size_t>(m), std::string(width, '.'));

  // Pass 1: service periods from grants.
  buffer_.for_each([&](const sim::Event& e) {
    if (e.type != sim::Event::Type::grant) return;
    for (i64 t = e.cycle; t < e.cycle + nc; ++t) {
      if (t < from || t >= to) continue;
      const auto col = static_cast<std::size_t>(t - from);
      rows[static_cast<std::size_t>(e.bank)][col] = port_digit(e.port);
    }
  });
  // Grant-start cells: the clock period in which a request was accepted
  // keeps its stream digit even if another port was turned away from the
  // same bank that period (Fig. 3 shows "1<<<<<...", not "<<<<<<...").
  std::vector<std::vector<bool>> grant_start(static_cast<std::size_t>(m),
                                             std::vector<bool>(width, false));
  buffer_.for_each([&](const sim::Event& e) {
    if (e.type != sim::Event::Type::grant) return;
    if (e.cycle < from || e.cycle >= to) return;
    grant_start[static_cast<std::size_t>(e.bank)][static_cast<std::size_t>(e.cycle - from)] =
        true;
  });
  // Pass 2: delay markers overwrite service characters, as in the paper
  // (e.g. Fig. 3's "1<<<<<222222" shows stream 2 waiting on the bank that
  // stream 1 is holding).  The event's blocker payload carries the port
  // holding the contended resource, which orients the marker directly —
  // a self conflict (blocker == port) renders '>' like any other wait on
  // the stream's own earlier grant.
  buffer_.for_each([&](const sim::Event& e) {
    if (e.type != sim::Event::Type::conflict) return;
    if (e.cycle < from || e.cycle >= to) return;
    const auto col = static_cast<std::size_t>(e.cycle - from);
    const auto row = static_cast<std::size_t>(e.bank);
    if (grant_start[row][col]) return;
    char marker = '*';
    if (e.conflict == sim::ConflictKind::fault) {
      marker = 'x';  // request pinned by an injected fault, not contention
    } else if (e.conflict != sim::ConflictKind::section) {
      marker = e.port > e.blocker ? '<' : '>';
    }
    rows[row][col] = marker;
  });
  return rows;
}

std::string Timeline::render(i64 from, i64 to, bool show_sections) const {
  const auto rows = grid(from, to);
  std::ostringstream out;
  const auto& cfg = mem_.config();
  std::size_t label_width = 0;
  std::vector<std::string> labels(rows.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const auto bank = static_cast<i64>(j);
    std::ostringstream lbl;
    if (show_sections) lbl << cfg.section_of(bank) << " - ";
    lbl << bank;
    labels[j] = lbl.str();
    label_width = std::max(label_width, labels[j].size());
  }
  out << std::string(label_width + 2, ' ') << "clock-period " << from << ".." << (to - 1)
      << '\n';
  for (std::size_t j = 0; j < rows.size(); ++j) {
    out << std::string(label_width - labels[j].size(), ' ') << labels[j] << "  " << rows[j]
        << '\n';
  }
  return out.str();
}

void Timeline::events_csv(std::ostream& os) const {
  os << "cycle,type,port,bank,element,conflict,blocker\n";
  buffer_.for_each([&](const sim::Event& e) {
    const bool grant = e.type == sim::Event::Type::grant;
    os << e.cycle << ',' << (grant ? "grant" : "conflict") << ',' << e.port << ',' << e.bank
       << ',' << e.element << ',' << (grant ? "" : sim::to_string(e.conflict)) << ','
       << e.blocker << '\n';
  });
}

std::string render_run(const sim::MemoryConfig& config,
                       const std::vector<sim::StreamConfig>& streams, i64 cycles,
                       bool show_sections) {
  sim::MemorySystem mem{config, streams};
  Timeline tl{mem};
  mem.run(cycles, /*stop_when_finished=*/true);
  return tl.render(0, mem.now(), show_sections);
}

}  // namespace vpmem::trace
