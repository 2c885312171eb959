/**
 * @file
 * parrot_perfbench: the PARROT benchmark program (run it through
 * perfbench/run.py, which builds it and sequences the phases).
 *
 *   --phase prepare    untimed preparation in its own process: the
 *                      `.ptrace` recordings replay reads, and for a
 *                      non-zero --seed the references the run is
 *                      checked against (serial grid rows; segmented
 *                      sampled digests and detailed CPI/energy).
 *   --phase run        set up, then a closed loop of timed batches for
 *                      --seconds; prints the end-to-end metrics, or with
 *                      --trace 1 the traced run's per-layer metrics.
 *   --phase reference  rewrite the committed sampled references
 *                      (seed 0) under --ref-dir.
 *
 * Every run prints human-readable lines and then, as its last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells.hh"
#include "layers.hh"
#include "common/atomic_file.hh"
#include "sim/result_store.hh"
#include "sim/runner.hh"
#include "tracer.hh"
#include "workload/trace_codec.hh"

namespace perfbench
{
namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct Options
{
    std::string phase;
    Kind kind = Kind::Grid;
    std::uint64_t seed = 0;
    unsigned seconds = 10;
    bool trace = false;
    std::string work;   //!< scratch directory of this run
    std::string cache;  //!< committed result cache (grid references)
    std::string refDir; //!< committed sampled and paper references
    std::string refCache; //!< references built for non-zero seeds
    std::string spans;  //!< span file the traced run writes
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "parrot_perfbench: %s\nusage: parrot_perfbench --phase "
                 "prepare|run|reference --workload grid|sampled|replay "
                 "--seed N --seconds N --trace 0|1 --work DIR --cache FILE "
                 "--ref-dir DIR --ref-cache DIR [--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseNumber(const char *flag, const char *text)
{
    std::uint64_t v = 0;
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end)
        usage(std::string("bad value for ") + flag + ": '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_kind = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--phase") {
            o.phase = value;
        } else if (flag == "--workload") {
            auto kind = parseKind(value);
            if (!kind)
                usage(std::string("unknown workload '") + value + "'");
            o.kind = *kind;
            have_kind = true;
        } else if (flag == "--seed") {
            o.seed = parseNumber("--seed", value);
        } else if (flag == "--seconds") {
            o.seconds =
                static_cast<unsigned>(parseNumber("--seconds", value));
        } else if (flag == "--trace") {
            const std::uint64_t t = parseNumber("--trace", value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (flag == "--work") {
            o.work = value;
        } else if (flag == "--cache") {
            o.cache = value;
        } else if (flag == "--ref-dir") {
            o.refDir = value;
        } else if (flag == "--ref-cache") {
            o.refCache = value;
        } else if (flag == "--spans") {
            o.spans = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (o.phase != "prepare" && o.phase != "run" && o.phase != "reference")
        usage("--phase must be prepare, run or reference");
    if (!have_kind && o.phase != "reference")
        usage("--workload is required");
    if (o.work.empty() || o.cache.empty() || o.refDir.empty() ||
        o.refCache.empty())
        usage("--work, --cache, --ref-dir and --ref-cache are required");
    if (o.phase == "run" && o.seconds == 0)
        usage("--seconds must be at least 1");
    if (o.trace && o.spans.empty())
        usage("--trace 1 needs --spans");
    return o;
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
envLine()
{
    std::ostringstream s;
    s << "nproc=" << hostCpus() << " workers=" << kWorkers
      << " build=" << PERFBENCH_BUILD_TYPE
      << " compiler=" << PERFBENCH_COMPILER;
    return s.str();
}

/** Shortest text that reads back as exactly `v`. */
std::string
number(double v)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return ec == std::errc() ? std::string(buf, ptr) : "0";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
tracePathOf(const Options &o, const std::string &app)
{
    return o.work + "/" + app + ".ptrace";
}

// --------------------------------------------------------------------
// References
// --------------------------------------------------------------------

/** What the cells of one run are checked against. */
struct References
{
    /** Grid: result-cache rows by cell key, including the Pmax row. */
    std::map<std::string, std::string> rows;
    /** Sampled/replay: per-cell digests and detailed CPI/energy. */
    SampledRefs sampled;
    std::string source; //!< where they came from, for the report
};

std::string
sampledRefsPath(const Options &o)
{
    return o.seed == 0 ? o.refDir + "/sampled.txt"
                       : o.refCache + "/seed" + std::to_string(o.seed) +
                             "-sampled.txt";
}

std::string
gridRefsPath(const Options &o)
{
    return o.seed == 0 ? o.cache
                       : o.refCache + "/seed" + std::to_string(o.seed) +
                             "-grid.txt";
}

References
loadReferences(const Options &o)
{
    References refs;
    refs.rows = loadCacheRows(gridRefsPath(o));
    if (o.kind == Kind::Grid) {
        refs.source = o.seed == 0 ? "committed result cache"
                                  : "serial run of the same cells";
    } else {
        refs.sampled = loadSampledRefs(sampledRefsPath(o));
        refs.source = o.seed == 0
                          ? "committed segmented-run digests"
                          : "in-process segmented generator runs";
    }
    return refs;
}

// --------------------------------------------------------------------
// Set-up: programs or recordings, and the Pmax calibration
// --------------------------------------------------------------------

struct Prepared
{
    std::vector<sim::Workload> wls; //!< per panel app
    std::vector<workload::SuiteEntry> entries; //!< grid suite
    double pmax = 0.0;
};

std::size_t
panelIndex(const std::string &app)
{
    const auto &apps = panelApps();
    return static_cast<std::size_t>(
        std::find(apps.begin(), apps.end(), app) - apps.begin());
}

/** A recorded workload, loaded the way sim::loadWorkload does it. */
sim::Workload
loadRecording(const std::string &path, Tracer *tr)
{
    sim::Workload w;
    if (tr) {
        auto span = tr->open("workload.trace_load", kNoCell);
        w.trace = workload::loadTraceFile(path);
        span.items(w.trace->numRecords);
    } else {
        w.trace = workload::loadTraceFile(path);
    }
    w.profile = workload::traceProfile(*w.trace);
    w.program = w.trace->program;
    return w;
}

Prepared
setUp(const Options &o, std::uint64_t grid_budget, Tracer *tr)
{
    Prepared p;
    for (const auto &app : panelApps()) {
        p.entries.push_back(seededEntry(app, o.seed));
        p.wls.push_back(timed(tr, "sim.load_workload", kNoCell, [&] {
            return o.kind == Kind::Replay
                       ? loadRecording(tracePathOf(o, app), tr)
                       : sim::loadWorkload(p.entries.back());
        }));
    }
    p.pmax = timed(tr, "sim.calibrate", kNoCell, [&] {
        return calibratePmax(p.wls[panelIndex("swim")], grid_budget);
    });
    return p;
}

/** The Pmax row a result store journals for this calibration. */
std::string
pmaxLine(double pmax, std::uint64_t grid_budget)
{
    sim::SimResult marker;
    marker.energyPerCycle = pmax;
    return sim::serializeCacheLine(
        sim::resultCacheKey("_pmax", "swim", grid_budget), marker);
}

// --------------------------------------------------------------------
// Batches and checks
// --------------------------------------------------------------------

struct Batch
{
    std::vector<sim::SimResult> results; //!< in cellsOf() order
    std::vector<std::string> errors;     //!< empty string = ran
    double seconds = 0.0;
};

Batch
gridBatch(const Options &o, const Prepared &p, std::uint64_t budget)
{
    const std::string path = o.work + "/grid-cache.txt";
    std::remove(path.c_str());
    Batch b;
    const std::int64_t start = nowNs();
    // A fresh store, as a cold figure regeneration sees it: its runner
    // generates the panel's programs again (about 1% of a batch) and its
    // journal appends every finished cell.
    {
        sim::RunOptions ro;
        ro.instBudget = budget;
        ro.pmaxPerCycle = p.pmax;
        ro.jobs = kWorkers;
        sim::ResultStore store(path, ro);
        for (const auto &model : sim::ModelConfig::allNames()) {
            auto rs = store.getSuite(model, p.entries);
            b.results.insert(b.results.end(), rs.begin(), rs.end());
        }
    } // the store compacts its cache file here, inside the batch
    b.seconds = static_cast<double>(nowNs() - start) / 1e9;
    b.errors.assign(b.results.size(), "");
    return b;
}

Batch
sampledBatch(const Options &o, const Prepared &p)
{
    const auto cells = cellsOf(o.kind);
    Batch b;
    b.results.resize(cells.size());
    b.errors.assign(cells.size(), "");
    const std::int64_t start = nowNs();
    sim::parallelFor(cells.size(), kWorkers, [&](std::size_t i) {
        try {
            b.results[i] =
                runSplitCell(cellConfig(o.kind, cells[i].model),
                             p.wls[cells[i].app], p.pmax,
                             o.work + "/cell" + std::to_string(i) +
                                 ".pckp",
                             nullptr, static_cast<std::uint32_t>(i))
                    .result;
        } catch (const std::exception &e) {
            b.errors[i] = e.what();
        }
    });
    b.seconds = static_cast<double>(nowNs() - start) / 1e9;
    return b;
}

Batch
runBatch(const Options &o, const Prepared &p, std::uint64_t grid_budget)
{
    return o.kind == Kind::Grid ? gridBatch(o, p, grid_budget)
                                : sampledBatch(o, p);
}

/** Why one cell's result is wrong; empty when it matches. */
std::string
checkCell(const Options &o, const References &refs, const Cell &cell,
          const sim::SimResult &r, const std::string &error,
          std::uint64_t grid_budget)
{
    if (!error.empty())
        return "threw: " + error;
    if (r.tombstone)
        return "tombstoned after " + std::to_string(r.attempts) +
               " attempt(s)";
    const std::string &app = panelApps()[cell.app];
    if (r.model != cell.model || r.app != app)
        return "result names " + r.model + "/" + r.app;
    if (o.kind == Kind::Grid) {
        const std::string line = resultLine(r, grid_budget);
        auto it = refs.rows.find(line.substr(0, line.find('\t')));
        if (it == refs.rows.end())
            return "no reference row";
        return it->second == line ? "" : "row differs from reference";
    }
    auto it = refs.sampled.find(refKey(cell.model, app));
    if (it == refs.sampled.end())
        return "no reference digest";
    return digestOf(resultLine(r, kSampleBudget)) == it->second.digest
               ? ""
               : "digest differs from reference";
}

/** Check a batch; prints each failure and returns how many. */
std::uint64_t
checkBatch(const Options &o, const References &refs, const Batch &b,
           std::uint64_t grid_budget)
{
    const auto cells = cellsOf(o.kind);
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string why = checkCell(o, refs, cells[i], b.results[i],
                                          b.errors[i], grid_budget);
        if (!why.empty()) {
            ++failed;
            std::printf("  FAILED %s/%s: %s\n", cells[i].model.c_str(),
                        panelApps()[cells[i].app].c_str(), why.c_str());
        }
    }
    return failed;
}

// --------------------------------------------------------------------
// Quality metrics
// --------------------------------------------------------------------

struct PaperRatio
{
    std::string name;
    double paperPct = 0.0;
    double measuredPct = 0.0;
};

/** The four headline ratios, with the paper's values from
 * ref/paper.txt. Empty when the file is unreadable. */
std::vector<PaperRatio>
paperRatios(const Options &o, const Batch &b)
{
    std::map<std::string, double> paper;
    std::ifstream in(o.refDir + "/paper.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream f(line);
        std::string name;
        double pct = 0.0;
        if (f >> name >> pct)
            paper[name] = pct;
    }

    const auto cells = cellsOf(Kind::Grid);
    auto result = [&](const std::string &model, std::size_t app)
        -> const sim::SimResult & {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].model == model && cells[i].app == app)
                return b.results[i];
        }
        std::abort();
    };
    // Geomean over the panel of per-app ratios, as the figures do.
    auto rel = [&](const std::string &variant, const std::string &base,
                   const std::function<double(const sim::SimResult &)>
                       &metric) {
        double log_sum = 0.0;
        const std::size_t n = panelApps().size();
        for (std::size_t a = 0; a < n; ++a)
            log_sum += std::log(metric(result(variant, a)) /
                                metric(result(base, a)));
        return 100.0 * (std::exp(log_sum / static_cast<double>(n)) - 1.0);
    };
    const auto energy = [](const sim::SimResult &r) { return r.totalEnergy; };
    const auto ipc = [](const sim::SimResult &r) { return r.ipc; };
    const auto cmpw = [](const sim::SimResult &r) { return r.cmpw; };

    std::vector<PaperRatio> out = {
        {"ton_vs_w_energy", 0.0, rel("TON", "W", energy)},
        {"tow_vs_n_ipc", 0.0, rel("TOW", "N", ipc)},
        {"ton_vs_n_cmpw", 0.0, rel("TON", "N", cmpw)},
        {"tow_vs_n_cmpw", 0.0, rel("TOW", "N", cmpw)},
    };
    for (auto &r : out) {
        auto it = paper.find(r.name);
        if (it == paper.end())
            return {};
        r.paperPct = it->second;
    }
    return out;
}

struct SampleQuality
{
    double cpiErrPct = 0.0;    //!< median over cells
    double energyErrPct = 0.0; //!< median over cells
    double ciMissFrac = 0.0;
};

SampleQuality
sampleQuality(const References &refs, const Batch &b, bool print)
{
    const auto cells = cellsOf(Kind::Sampled);
    std::vector<double> cpi_err, epi_err;
    unsigned misses = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string &app = panelApps()[cells[i].app];
        auto it = refs.sampled.find(refKey(cells[i].model, app));
        const sim::SimResult &r = b.results[i];
        if (it == refs.sampled.end() || r.tombstone || r.insts == 0)
            continue;
        const double ce = std::abs(cyclesPerInst(r) - it->second.cpi) /
                          it->second.cpi;
        const double ee = std::abs(energyPerInst(r) - it->second.epi) /
                          it->second.epi;
        const bool miss = ce > r.sampleCiIpc || ee > r.sampleCiEnergy;
        misses += miss;
        cpi_err.push_back(100.0 * ce);
        epi_err.push_back(100.0 * ee);
        if (print) {
            std::printf("  %-4s %-13s cpi_err %6.2f%% (ci %6.2f%%)  "
                        "energy_err %6.2f%% (ci %6.2f%%)%s\n",
                        cells[i].model.c_str(), app.c_str(), 100.0 * ce,
                        100.0 * r.sampleCiIpc, 100.0 * ee,
                        100.0 * r.sampleCiEnergy,
                        miss ? "  outside its CI" : "");
        }
    }
    SampleQuality q;
    q.cpiErrPct = median(cpi_err);
    q.energyErrPct = median(epi_err);
    q.ciMissFrac = ratio(misses, static_cast<double>(cpi_err.size()));
    return q;
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetric(const std::string &name, const std::string &value,
            const std::string &unit, const std::string &note = "")
{
    std::printf("  %-32s %16s %-8s %s\n", name.c_str(), value.c_str(),
                unit.c_str(), note.c_str());
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
}

// --------------------------------------------------------------------
// Phases
// --------------------------------------------------------------------

int
prepare(const Options &o, std::uint64_t grid_budget)
{
    const unsigned threads = std::min(hostCpus(), 4u);
    if (o.kind == Kind::Replay) {
        for (const auto &app : panelApps()) {
            workload::recordTrace(seededEntry(app, o.seed), kSampleBudget,
                                  tracePathOf(o, app));
        }
    }
    if (o.seed == 0)
        return 0; // the committed references apply

    // References for a new seed come from the generator, so replay is
    // checked against it and a run is checked against its own code.
    // They depend only on the seed and the build, so runs of one build
    // share them through the reference cache.
    const std::string refs_path =
        o.kind == Kind::Grid ? gridRefsPath(o) : sampledRefsPath(o);
    if (std::ifstream(refs_path))
        return 0;
    Options gen = o;
    gen.kind = o.kind == Kind::Grid ? Kind::Grid : Kind::Sampled;
    const Prepared p = setUp(gen, grid_budget, nullptr);
    if (o.kind != Kind::Grid) {
        const SampledRefs refs = buildSampledRefs(p.wls, p.pmax, threads);
        return writeSampledRefs(refs_path, refs, "") ? 0 : 2;
    }
    // The pooled grid must equal the same cells run one at a time.
    std::string rows = sim::cacheHeaderLine() + "\n" +
                       pmaxLine(p.pmax, grid_budget) + "\n";
    for (const Cell &c : cellsOf(Kind::Grid)) {
        sim::ParrotSimulator s(sim::ModelConfig::make(c.model),
                               p.wls[c.app]);
        rows += resultLine(s.run(grid_budget, p.pmax), grid_budget) + "\n";
    }
    return atomic_file::writeFileAtomic(refs_path, rows) ? 0 : 2;
}

int
writeReference(const Options &o, std::uint64_t grid_budget)
{
    Options gen = o;
    gen.kind = Kind::Sampled;
    gen.seed = 0;
    const Prepared p = setUp(gen, grid_budget, nullptr);
    const SampledRefs refs =
        buildSampledRefs(p.wls, p.pmax, std::min(hostCpus(), 4u));
    const std::string comment =
        "# Sampled-cell references at seed 0, written by\n"
        "#   python3 perfbench/run.py --write-reference\n"
        "# Cells: W and TON x panel apps, " +
        std::to_string(kSampleBudget) + " instructions, sampled " +
        std::to_string(kSampleWindow) + ":" +
        std::to_string(kSampleStride) + ", split at " +
        std::to_string(kSampleSplit) + ".\n";
    const std::string path = o.refDir + "/sampled.txt";
    if (!writeSampledRefs(path, refs, comment)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 2;
    }
    std::printf("wrote %zu references to %s\n", refs.size(), path.c_str());
    return 0;
}

/** Setup checks shared by both run modes; false when a check fails. */
bool
checkSetup(const References &refs, const Prepared &p,
           std::uint64_t grid_budget, const Options &o)
{
    if (o.kind == Kind::Grid || o.seed == 0) {
        const std::string line = pmaxLine(p.pmax, grid_budget);
        auto it = refs.rows.find(line.substr(0, line.find('\t')));
        if (it == refs.rows.end() || it->second != line) {
            std::printf("  FAILED Pmax calibration %s differs from its "
                        "reference row\n",
                        number(p.pmax).c_str());
            return false;
        }
    }
    if (o.kind != Kind::Grid &&
        refs.sampled.size() != cellsOf(o.kind).size()) {
        std::printf("  FAILED sampled references missing\n");
        return false;
    }
    return true;
}

int
measure(const Options &o, std::uint64_t grid_budget)
{
    const References refs = loadReferences(o);
    const auto cells = cellsOf(o.kind);

    std::vector<double> setup_secs;
    Prepared p;
    for (int i = 0; i < kSetups; ++i) {
        p = Prepared{};
        const std::int64_t start = nowNs();
        p = setUp(o, grid_budget, nullptr);
        setup_secs.push_back(static_cast<double>(nowNs() - start) / 1e9);
    }
    bool correct = checkSetup(refs, p, grid_budget, o);

    // One untimed warm-up batch lets page faults, allocator growth and
    // the host's caches settle; its results are checked like the rest
    // and feed the quality metrics.
    const Batch first = runBatch(o, p, grid_budget);
    std::uint64_t attempted = cells.size();
    std::uint64_t failed = checkBatch(o, refs, first, grid_budget);
    std::vector<double> batch_secs;
    const std::int64_t phase_start = nowNs();
    do {
        const Batch b = runBatch(o, p, grid_budget);
        attempted += cells.size();
        failed += checkBatch(o, refs, b, grid_budget);
        batch_secs.push_back(b.seconds);
    } while (static_cast<double>(nowNs() - phase_start) / 1e9 <
             o.seconds);
    correct = correct && failed == 0;

    // Every batch simulates the same instructions, so throughput is
    // one batch's instructions over the median batch time.
    double insts = 0.0;
    for (const auto &r : first.results)
        insts += static_cast<double>(r.insts);
    const double wall = median(batch_secs);
    const double mips = insts / wall / 1e6;
    const double setup = median(setup_secs);
    const double rss = peakRssMb();

    std::printf("perfbench %s seed=%llu %s\n", kindName(o.kind),
                static_cast<unsigned long long>(o.seed),
                envLine().c_str());
    std::printf("  %zu timed batch(es) of %zu cells after a warm-up batch, "
                "%llu attempted, %llu failed; references: %s\n",
                batch_secs.size(), cells.size(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                refs.source.c_str());
    std::string batch_list;
    for (double s : batch_secs)
        batch_list += " " + number(s);
    std::printf("  batch seconds:%s\n", batch_list.c_str());
    printMetric("wall_s", number(wall), "s",
                "median host time of one batch");
    printMetric("sim_mips", number(mips), "Minst/s",
                "simulated instructions of a batch per median batch second");
    printMetric("setup_s", number(setup), "s",
                "median of " + std::to_string(kSetups) + " set-ups");
    printMetric("peak_rss_mb", number(rss), "MB");
    printMetric("failed_frac",
                number(ratio(static_cast<double>(failed),
                             static_cast<double>(attempted))),
                "ratio", "failed / attempted cells");
    if (o.kind == Kind::Grid) {
        const auto ratios = paperRatios(o, first);
        double gap = 0.0;
        std::string note;
        for (const auto &r : ratios) {
            gap += std::abs(r.measuredPct - r.paperPct) /
                   static_cast<double>(ratios.size());
            char buf[96];
            std::snprintf(buf, sizeof(buf), "%s %+.1f%% (paper %+.0f%%) ",
                          r.name.c_str(), r.measuredPct, r.paperPct);
            note += buf;
        }
        printMetric("paper_gap_pp", ratios.empty() ? "n/a" : number(gap),
                    "pp", note);
        printMetric("sample_cpi_err_pct", "n/a", "%",
                    "sampled and replay only");
        printMetric("sample_energy_err_pct", "n/a", "%",
                    "sampled and replay only");
        printMetric("ci_miss_frac", "n/a", "ratio",
                    "sampled and replay only");
        correct = correct && !ratios.empty();
    } else {
        const SampleQuality q = sampleQuality(refs, first, false);
        printMetric("paper_gap_pp", "n/a", "pp", "grid only");
        printMetric("sample_cpi_err_pct", number(q.cpiErrPct), "%",
                    "median over cells vs detailed runs");
        printMetric("sample_energy_err_pct", number(q.energyErrPct), "%",
                    "median over cells vs detailed runs");
        printMetric("ci_miss_frac", number(q.ciMissFrac), "ratio",
                    "cells with an error outside their own 95% CI");
        sampleQuality(refs, first, true);
    }

    printJson(correct, attempted, failed,
              {{"wall_s", wall, "s"},
               {"sim_mips", mips, "Minst/s"},
               {"setup_s", setup, "s"},
               {"peak_rss_mb", rss, "MB"}});
    return correct ? 0 : 1;
}

/** One cell as the serial passes of the traced run execute it. */
sim::SimResult
serialCell(const Options &o, const Prepared &p, std::size_t i,
           std::uint64_t grid_budget, Tracer *tr)
{
    const Cell c = cellsOf(o.kind)[i];
    const auto id = static_cast<std::uint32_t>(i);
    const sim::ModelConfig cfg = cellConfig(o.kind, c.model);
    const sim::Workload &wl = p.wls[c.app];
    const std::string ckpt = o.work + "/serial.pckp";
    CellRun run;
    if (o.kind == Kind::Grid) {
        run.sim = timed(tr, "sim.construct", id, [&] {
            return std::make_unique<sim::ParrotSimulator>(cfg, wl);
        });
        run.result = timed(tr, "sim.run", id,
                           [&] { return run.sim->run(grid_budget, p.pmax); });
        // Grid cells do not resume, but the checkpoint path's cost is
        // measured on them too.
        timed(tr, "sim.checkpoint_save", id,
              [&] { run.sim->saveCheckpoint(ckpt); });
        auto resumed = timed(tr, "sim.construct", id, [&] {
            return std::make_unique<sim::ParrotSimulator>(cfg, wl);
        });
        timed(tr, "sim.checkpoint_load", id,
              [&] { resumed->loadCheckpoint(ckpt); });
    } else {
        run = runSplitCell(cfg, wl, p.pmax, ckpt, tr, id);
    }
    timed(tr, "stats.materialize", id, [&] {
        sim::SimResult m;
        sim::materializeResult(m, run.sim->statsTree().snapshot());
    });
    return run.result;
}

int
traced(const Options &o, std::uint64_t grid_budget)
{
    const References refs = loadReferences(o);
    const auto cells = cellsOf(o.kind);
    Tracer tr;

    const Prepared p = setUp(o, grid_budget, &tr);
    bool correct = checkSetup(refs, p, grid_budget, o);
    std::uint64_t attempted = 0, failed = 0;

    // The pooled batch, untraced: the denominator of pool efficiency.
    const Batch pooled = runBatch(o, p, grid_budget);
    attempted += cells.size();
    failed += checkBatch(o, refs, pooled, grid_budget);

    // The same cells one at a time, each once without and once with
    // spans, in alternating order so drift and warm-up cancel; the
    // difference is the tracing overhead.
    Batch plain, spanned;
    double plain_ns = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto run_plain = [&] {
            const std::int64_t start = nowNs();
            plain.results.push_back(
                serialCell(o, p, i, grid_budget, nullptr));
            plain_ns += static_cast<double>(nowNs() - start);
        };
        auto run_spanned = [&] {
            auto span = tr.open("cell", static_cast<std::uint32_t>(i));
            spanned.results.push_back(
                serialCell(o, p, i, grid_budget, &tr));
        };
        if (i % 2) {
            run_plain();
            run_spanned();
        } else {
            run_spanned();
            run_plain();
        }
    }
    for (Batch *b : {&plain, &spanned}) {
        b->errors.assign(cells.size(), "");
        attempted += cells.size();
        failed += checkBatch(o, refs, *b, grid_budget);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        timeLayers(tr, static_cast<std::uint32_t>(i),
                   cellConfig(o.kind, cells[i].model), p.wls[cells[i].app],
                   o.work + "/layers.ptrace");
    }
    correct = correct && failed == 0;

    // Host timings.
    std::vector<double> run_ms;
    for (const auto &[cell, ns] : tr.perCellNs("sim.run"))
        run_ms.push_back(static_cast<double>(ns) / 1e6);
    const double run_ns = static_cast<double>(tr.totalNs("sim.run"));
    auto mean_ms = [&](const char *name) {
        return ratio(static_cast<double>(tr.totalNs(name)) / 1e6,
                     static_cast<double>(tr.spanCount(name)));
    };
    auto per_item = [&](const char *name, double scale) {
        return ratio(static_cast<double>(tr.totalNs(name)) / scale,
                     static_cast<double>(tr.totalItems(name)));
    };
    const double cpu_ns_per_uop = per_item("cpu.core", 1.0);
    const double source_ns_per_inst = per_item(
        o.kind == Kind::Replay ? "workload.replay" : "workload.exec", 1.0);

    // Simulated counts, summed over the traced pass's results.
    double cycles = 0, detailed_insts = 0, insts = 0, detailed_uops = 0;
    double tc_uops = 0, all_uops = 0, tp_hits = 0, tp_lookups = 0;
    double aborts = 0, predictions = 0, execs = 0, inserts = 0;
    double opt_traces = 0, opt_execs = 0, cold_mis = 0, cold_br = 0;
    double l1d = 0, l2 = 0;
    for (const auto &r : spanned.results) {
        cycles += static_cast<double>(r.cycles);
        insts += static_cast<double>(r.insts);
        detailed_insts += static_cast<double>(r.insts) * r.sampleCoverage;
        detailed_uops += static_cast<double>(r.uops) * r.sampleCoverage;
        tc_uops += static_cast<double>(r.uopsFromTraceCache);
        all_uops += static_cast<double>(r.uopsFromTraceCache +
                                        r.uopsFromColdPipe);
        tp_hits += static_cast<double>(r.tpHits);
        tp_lookups += static_cast<double>(r.tpLookups);
        aborts += static_cast<double>(r.traceMispredicts);
        predictions += static_cast<double>(r.tracePredictions);
        execs += static_cast<double>(r.traceExecutions);
        inserts += static_cast<double>(r.tracesInserted);
        opt_traces += static_cast<double>(r.tracesOptimized);
        opt_execs += static_cast<double>(r.optimizedTraceExecutions);
        cold_mis += static_cast<double>(r.coldBranchMispredicts);
        cold_br += static_cast<double>(r.coldCondBranches);
        l1d += r.l1dMissRate / static_cast<double>(cells.size());
        l2 += r.l2MissRate / static_cast<double>(cells.size());
    }

    const double overhead =
        100.0 * ratio(static_cast<double>(tr.totalNs("cell")) - plain_ns,
                      plain_ns);
    const std::vector<Metric> out = {
        {"sim.run_ms_p50", percentile(run_ms, 50), "ms"},
        {"sim.run_ms_p90", percentile(run_ms, 90), "ms"},
        {"sim.construct_ms", mean_ms("sim.construct"), "ms"},
        {"sim.load_workload_ms", mean_ms("sim.load_workload"), "ms"},
        {"sim.calibrate_ms", mean_ms("sim.calibrate"), "ms"},
        {"sim.checkpoint_save_ms", mean_ms("sim.checkpoint_save"), "ms"},
        {"sim.checkpoint_load_ms", mean_ms("sim.checkpoint_load"), "ms"},
        {"sim.pool_efficiency",
         ratio(run_ns, kWorkers * pooled.seconds * 1e9), "ratio"},
        {"workload.exec_ns_per_inst", per_item("workload.exec", 1.0),
         "ns"},
        {"workload.replay_ns_per_inst", per_item("workload.replay", 1.0),
         "ns"},
        // ns per record is numerically ms per million records.
        {"workload.trace_load_ms_per_mrec",
         per_item("workload.trace_load", 1.0), "ms"},
        {"frontend.bp_ns_per_branch", per_item("frontend.bp", 1.0), "ns"},
        {"frontend.bp_warm_ns_per_branch",
         per_item("frontend.bp_warm", 1.0), "ns"},
        {"frontend.decode_ns_per_window", per_item("frontend.decode", 1.0),
         "ns"},
        {"memory.access_ns", per_item("memory.access", 1.0), "ns"},
        {"memory.warm_ns", per_item("memory.warm", 1.0), "ns"},
        {"cpu.ns_per_uop", cpu_ns_per_uop, "ns"},
        {"cpu.ns_per_cycle",
         ratio(static_cast<double>(tr.totalNs("cpu.core")),
               tr.counter("cpu.cycles")),
         "ns"},
        {"tracecache.select_ns_per_inst",
         per_item("tracecache.select", 1.0), "ns"},
        {"tracecache.filter_ns_per_bump",
         per_item("tracecache.filter", 1.0), "ns"},
        {"tracecache.lookup_ns", per_item("tracecache.lookup", 1.0), "ns"},
        {"tracecache.construct_us_per_trace",
         per_item("tracecache.construct", 1e3), "us"},
        {"tracecache.tp_ns_per_predict", per_item("tracecache.tp", 1.0),
         "ns"},
        {"optimizer.us_per_trace", per_item("optimizer.optimize", 1e3),
         "us"},
        {"stats.materialize_us", mean_ms("stats.materialize") * 1e3, "us"},
        {"cpu.wall_share", ratio(cpu_ns_per_uop * detailed_uops, run_ns),
         "ratio"},
        {"workload.wall_share", ratio(source_ns_per_inst * insts, run_ns),
         "ratio"},
        {"bench.trace_overhead_pct", overhead, "%"},
        {"cpu.sim_cycles", cycles, "count"},
        {"cpu.detailed_insts", detailed_insts, "count"},
        {"sample.coverage", ratio(detailed_insts, insts), "ratio"},
        {"tracecache.coverage", ratio(tc_uops, all_uops), "ratio"},
        {"tracecache.tp_hit_ratio", ratio(tp_hits, tp_lookups), "ratio"},
        {"tracecache.abort_rate", ratio(aborts, predictions), "ratio"},
        {"tracecache.exec_per_insert", ratio(execs, inserts), "ratio"},
        {"optimizer.traces", opt_traces, "count"},
        {"optimizer.utilization", ratio(opt_execs, opt_traces), "ratio"},
        {"frontend.cold_mispredict_rate", ratio(cold_mis, cold_br),
         "ratio"},
        {"memory.l1d_miss_ratio", l1d, "ratio"},
        {"memory.l2_miss_ratio", l2, "ratio"},
    };

    std::printf("perfbench %s seed=%llu traced %s\n", kindName(o.kind),
                static_cast<unsigned long long>(o.seed),
                envLine().c_str());
    std::printf("  %zu cells x 3 passes (pooled, serial, traced serial), "
                "%llu attempted, %llu failed; references: %s\n",
                cells.size(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                refs.source.c_str());
    for (const auto &m : out)
        printMetric(m.name, number(m.value), m.unit);

    // Self time by span name, largest first.
    std::map<std::string, double> self_by_name;
    const auto self = tr.selfTimes();
    for (std::size_t i = 0; i < tr.spans().size(); ++i)
        self_by_name[tr.spans()[i].name] += static_cast<double>(self[i]);
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto &[name, ns] : self_by_name)
        ranked.emplace_back(ns, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("  self time by span:\n");
    for (const auto &[ns, name] : ranked)
        std::printf("    %-28s %10.1f ms\n", name.c_str(), ns / 1e6);

    std::ostringstream header;
    header << "{\"workload\": \"" << kindName(o.kind)
           << "\", \"seed\": " << o.seed << ", \"nproc\": " << hostCpus()
           << ", \"workers\": " << kWorkers << ", \"build\": \""
           << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
           << PERFBENCH_COMPILER << "\"}";
    if (!tr.write(o.spans, header.str())) {
        std::printf("  FAILED cannot write span file %s\n",
                    o.spans.c_str());
        correct = false;
    } else {
        std::printf("  spans: %zu written to %s\n", tr.spans().size(),
                    o.spans.c_str());
    }
    printJson(correct, attempted, failed, out);
    return correct ? 0 : 1;
}

int
benchMain(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const unsigned cpus = hostCpus();
    if (cpus < kWorkers) {
        std::fprintf(stderr,
                     "parrot_perfbench: refusing to start %u workers on "
                     "%u CPU(s)\n",
                     kWorkers, cpus);
        return 2;
    }
    const std::uint64_t grid_budget = cacheBudget(loadCacheRows(o.cache));
    if (grid_budget == 0) {
        std::fprintf(stderr,
                     "parrot_perfbench: no single budget in result cache "
                     "%s\n",
                     o.cache.c_str());
        return 2;
    }
    if (o.phase == "prepare")
        return prepare(o, grid_budget);
    if (o.phase == "reference")
        return writeReference(o, grid_budget);
    return o.trace ? traced(o, grid_budget) : measure(o, grid_budget);
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "parrot_perfbench: %s\n", e.what());
        return 2;
    }
}
