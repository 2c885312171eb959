/**
 * @file
 * The benchmark's workloads, their cells and the reference checks every
 * cell's result goes through.
 *
 *  - grid:    detailed (model x app) cells of the paper's figure grid at
 *             the committed cache's budget, run through
 *             sim::ResultStore::getSuite with a fresh cache file;
 *  - sampled: W and TON cells ten times longer, under SMARTS sampling,
 *             each split at a `.pckp` checkpoint;
 *  - replay:  the sampled cells, read back from `.ptrace` recordings.
 *
 * The app panel spans every benchmark group, because trace reuse (and
 * with it the hot/cold split of host time) follows each group's loop
 * structure.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/model_config.hh"
#include "sim/result.hh"
#include "sim/simulator.hh"
#include "tracer.hh"
#include "workload/profile.hh"

namespace perfbench
{

using namespace parrot;

enum class Kind { Grid, Sampled, Replay };

/** Parse "grid" | "sampled" | "replay". */
std::optional<Kind> parseKind(const std::string &name);
const char *kindName(Kind kind);

/** Worker threads of every timed batch: one process, a closed loop of
 * batches, two workers. Four workers on a four-core host measure
 * contention more than the simulator. */
inline constexpr unsigned kWorkers = 2;

/** Sampled and replay cells: ten times the grid budget, sampled with
 * the recipe EXPERIMENTS.md documents, split at the middle. */
inline constexpr std::uint64_t kSampleBudget = 6'000'000;
inline constexpr std::uint64_t kSampleWindow = 8000;
inline constexpr std::uint64_t kSampleStride = 320000;
inline constexpr std::uint64_t kSampleSplit = kSampleBudget / 2;

/** The app panel (two per group, including gcc and word). */
const std::vector<std::string> &panelApps();

/** The panel app's suite entry with `seed` mixed into its generator
 * seed; seed 0 keeps the calibrated seed the references were made
 * with. */
workload::SuiteEntry seededEntry(const std::string &app,
                                 std::uint64_t seed);

struct Cell
{
    std::string model;
    std::size_t app = 0; //!< index into panelApps()
};

std::vector<Cell> cellsOf(Kind kind);

/** The cell's model, with sampling switched on for sampled/replay. */
sim::ModelConfig cellConfig(Kind kind, const std::string &model);

/** Run `fn` inside a span when tracing, bare otherwise. */
template <typename Fn>
decltype(auto)
timed(Tracer *tr, const char *name, std::uint32_t cell, Fn &&fn)
{
    if (!tr)
        return fn();
    auto scope = tr->open(name, cell);
    return fn();
}

/** A finished cell: its result and the simulator that produced it. */
struct CellRun
{
    std::unique_ptr<sim::ParrotSimulator> sim;
    sim::SimResult result;
};

/**
 * One sampled/replay cell: run to the split point, save a checkpoint,
 * resume it in a fresh simulator and run to the budget.
 */
CellRun runSplitCell(const sim::ModelConfig &cfg, const sim::Workload &wl,
                     double pmax, const std::string &checkpoint,
                     Tracer *tr, std::uint32_t cell);

/** Pmax per §3.2: dynamic energy per cycle of swim on N. */
double calibratePmax(const sim::Workload &swim, std::uint64_t budget);

/** The result-cache line of a result (key, tab, key=value record). */
std::string resultLine(const sim::SimResult &r, std::uint64_t budget);

/** FNV-1a digest of a result line, as 16 hex digits. */
std::string digestOf(const std::string &line);

/** Result-cache rows keyed by cell key ("N/gcc/600000"). Empty when
 * the file cannot be read. */
std::map<std::string, std::string> loadCacheRows(const std::string &path);

/** The budget every row of a result cache was simulated at; 0 when
 * the rows disagree or there are none. */
std::uint64_t cacheBudget(const std::map<std::string, std::string> &rows);

/** Reference for one sampled cell: the digest of its segmented run
 * plus the detailed (unsampled) run's CPI and dynamic energy per
 * instruction. */
struct SampledRef
{
    std::string digest;
    double cpi = 0.0;
    double epi = 0.0;
};

/** Keyed by "model/app". */
using SampledRefs = std::map<std::string, SampledRef>;

std::string refKey(const std::string &model, const std::string &app);

/** Compute references for every sampled cell on `threads` workers:
 * the digest of the in-process segmented run `run(split); run(budget)`
 * and the detailed run's CPI and energy per instruction. */
SampledRefs buildSampledRefs(const std::vector<sim::Workload> &wls,
                             double pmax, unsigned threads);

bool writeSampledRefs(const std::string &path, const SampledRefs &refs,
                      const std::string &comment);

/** Empty when the file is missing or malformed. */
SampledRefs loadSampledRefs(const std::string &path);

/** Dynamic energy per committed instruction. */
double energyPerInst(const sim::SimResult &r);

/** Cycles per committed instruction. */
double cyclesPerInst(const sim::SimResult &r);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
