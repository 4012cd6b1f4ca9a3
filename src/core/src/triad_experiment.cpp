#include "vpmem/core/triad_experiment.hpp"

#include <exception>

#include "vpmem/core/sweep.hpp"
#include "vpmem/exec/pool.hpp"
#include "vpmem/util/error.hpp"

namespace vpmem::core {

std::vector<TriadRow> run_triad_experiment(const TriadExperiment& experiment,
                                           std::size_t workers,
                                           obs::SweepTelemetry* telemetry) {
  if (experiment.inc_min < 1 || experiment.inc_max < experiment.inc_min) {
    throw Error{ErrorCode::config_invalid, "run_triad_experiment: bad INC range"};
  }
  const auto count = static_cast<std::size_t>(experiment.inc_max - experiment.inc_min + 1);
  // Every slot is written by exactly one worker; an error is kept in its
  // slot and rethrown on the caller's thread (the lowest INC wins).
  std::vector<TriadRow> rows(count);
  std::vector<std::exception_ptr> errors(count);
  const auto run_row = [&](i64 i, int /*worker*/) {
    const auto slot = static_cast<std::size_t>(i);
    try {
      const obs::Stopwatch watch;
      xmp::TriadSetup setup = experiment.setup;
      setup.inc = experiment.inc_min + i;
      const xmp::TriadResult contended =
          xmp::run_triad(experiment.machine, setup, /*other_cpu_active=*/true);
      const xmp::TriadResult dedicated =
          xmp::run_triad(experiment.machine, setup, /*other_cpu_active=*/false);
      TriadRow& row = rows[slot];
      row.inc = setup.inc;
      row.cycles_contended = contended.cycles;
      row.cycles_dedicated = dedicated.cycles;
      row.conflicts_contended = contended.conflicts;
      row.conflicts_dedicated = dedicated.conflicts;
      row.background_goodput = contended.background_goodput();
      if (telemetry != nullptr) {
        telemetry->record_point(watch.seconds(), contended.cycles + dedicated.cycles);
      }
    } catch (...) {
      errors[slot] = std::current_exception();
    }
  };
  exec::parallel_for(static_cast<i64>(count), static_cast<int>(default_workers(workers)),
                     run_row);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return rows;
}

Table triad_table(const std::vector<TriadRow>& rows) {
  Table table{{"INC", "cycles(a)", "cycles(b)", "bank(c)", "section(d)", "simult(e)",
               "slowdown", "otherCPU b_eff"},
              "Fig. 10 — triad A(I)=B(I)+C(I)*D(I), n=1024, Cray X-MP model "
              "(a: other CPU active, b: dedicated; c-e: conflicts of the contended run)"};
  for (const auto& r : rows) {
    table.add_row({cell(static_cast<long long>(r.inc)),
                   cell(static_cast<long long>(r.cycles_contended)),
                   cell(static_cast<long long>(r.cycles_dedicated)),
                   cell(static_cast<long long>(r.conflicts_contended.bank)),
                   cell(static_cast<long long>(r.conflicts_contended.section)),
                   cell(static_cast<long long>(r.conflicts_contended.simultaneous)),
                   cell(r.interference_factor(), 3), cell(r.background_goodput, 3)});
  }
  return table;
}

}  // namespace vpmem::core
