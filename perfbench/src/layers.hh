/**
 * @file
 * Per-layer host timings for the traced run: each simulator layer's
 * public calls are timed from outside, on streams captured from the
 * cell's own workload (instructions, branches, fetch windows,
 * addresses, uops, trace candidates). One span per layer loop, with
 * the number of calls it made as its items.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>

#include "sim/model_config.hh"
#include "sim/simulator.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace parrot;

/** Instructions captured from the start of each cell's stream. */
inline constexpr std::uint64_t kLayerInsts = 100'000;

/**
 * Time every layer on the first kLayerInsts instructions of `wl` under
 * the cell's model. `scratch` is a file path the trace-codec timing may
 * write a recording to (grid and sampled cells, whose workloads have no
 * recording of their own).
 */
void timeLayers(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
                const sim::Workload &wl, const std::string &scratch);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
