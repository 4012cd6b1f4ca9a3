// Umbrella header for the vpmem library — everything needed to reproduce
// Oed & Lange (1985), "On the Effective Bandwidth of Interleaved Memories
// in Vector Processor Systems".
//
// Layers (see DESIGN.md):
//   vpmem::sim       cycle-level bank/section/port simulator
//   vpmem::obs       run reports, conflict attribution, tracer, histograms,
//                    wall-clock perf telemetry
//   vpmem::analytic  Theorems 1-9 and the distance isomorphism
//   vpmem::trace     the paper's clock diagrams
//   vpmem::xmp       Cray X-MP machine model (Section IV)
//   vpmem::skew      skewed storage schemes (the conclusion's remedy)
//   vpmem::baseline  random-reference traffic (the [1]-[5] baseline)
//   vpmem::check     differential fuzzing: reference model, invariants,
//                    config fuzzer, deterministic replay + shrinking
//   vpmem::exec      campaign executor: worker pool, fork sandbox,
//                    retry/backoff, journaled resume
//   vpmem::core      facade: reports, advisor, groups, parallel sweeps
#pragma once

#include "vpmem/analytic/classify.hpp"
#include "vpmem/analytic/degraded.hpp"
#include "vpmem/analytic/fortran.hpp"
#include "vpmem/analytic/isomorphism.hpp"
#include "vpmem/analytic/stream.hpp"
#include "vpmem/analytic/theorems.hpp"
#include "vpmem/baseline/random_traffic.hpp"
#include "vpmem/baseline/rng.hpp"
#include "vpmem/check/differential.hpp"
#include "vpmem/check/fuzzer.hpp"
#include "vpmem/check/invariants.hpp"
#include "vpmem/check/reference_model.hpp"
#include "vpmem/check/replay.hpp"
#include "vpmem/core/advisor.hpp"
#include "vpmem/core/bandwidth.hpp"
#include "vpmem/core/diagnose.hpp"
#include "vpmem/core/group.hpp"
#include "vpmem/core/layout.hpp"
#include "vpmem/core/sweep.hpp"
#include "vpmem/core/triad_experiment.hpp"
#include "vpmem/exec/executor.hpp"
#include "vpmem/exec/pool.hpp"
#include "vpmem/exec/sandbox.hpp"
#include "vpmem/obs/attribution.hpp"
#include "vpmem/obs/metrics.hpp"
#include "vpmem/obs/report.hpp"
#include "vpmem/obs/timer.hpp"
#include "vpmem/obs/tracer.hpp"
#include "vpmem/skew/analysis.hpp"
#include "vpmem/skew/scheme.hpp"
#include "vpmem/sim/config.hpp"
#include "vpmem/sim/event.hpp"
#include "vpmem/sim/event_buffer.hpp"
#include "vpmem/sim/fault.hpp"
#include "vpmem/sim/memory_system.hpp"
#include "vpmem/sim/run.hpp"
#include "vpmem/sim/steady_state.hpp"
#include "vpmem/trace/timeline.hpp"
#include "vpmem/util/backoff.hpp"
#include "vpmem/util/chart.hpp"
#include "vpmem/util/error.hpp"
#include "vpmem/util/hash.hpp"
#include "vpmem/util/journal.hpp"
#include "vpmem/util/json.hpp"
#include "vpmem/util/numeric.hpp"
#include "vpmem/util/rational.hpp"
#include "vpmem/util/table.hpp"
#include "vpmem/xmp/kernels.hpp"
#include "vpmem/xmp/machine.hpp"
