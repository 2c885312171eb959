/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed call (or loop of calls) into a simulator layer,
 * recorded from the benchmark's own code: name, start, end, the span
 * that encloses it and the id of the cell it belongs to. Spans stay in
 * memory until the run ends and are then written out as JSON lines.
 * Counters record work done at the same boundaries (items per span,
 * plus named totals), so per-item costs are measured where the work
 * happens.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Cell id of spans that belong to no single cell (set-up, passes). */
inline constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::uint32_t cell = kNoCell;
    std::int32_t parent = -1; //!< index of the enclosing span, -1 at top
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t items = 0;  //!< work units processed inside the span

    std::int64_t durationNs() const { return endNs - startNs; }
};

/** Single-threaded recorder: spans nest in the order they are opened. */
class Tracer
{
  public:
    /** An open span; closes when destroyed. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::size_t index)
            : tr(tracer), idx(index)
        {}
        ~Scope() { tr.close(idx); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Record how many work units the span processed. */
        void items(std::uint64_t n) { tr.spanList[idx].items = n; }

      private:
        Tracer &tr;
        std::size_t idx;
    };

    Scope open(const std::string &name, std::uint32_t cell);

    /** Add to a named work counter (e.g. simulated core cycles). */
    void count(const std::string &name, double n) { counters[name] += n; }

    double counter(const std::string &name) const;

    const std::vector<Span> &spans() const { return spanList; }

    /** Duration of span `i` minus the part its child spans cover. */
    std::vector<std::int64_t> selfTimes() const;

    /** Total duration and items over every span called `name`. */
    std::int64_t totalNs(const std::string &name) const;
    std::uint64_t totalItems(const std::string &name) const;
    std::size_t spanCount(const std::string &name) const;

    /** Per-cell summed duration of spans called `name`, by cell id. */
    std::map<std::uint32_t, std::int64_t>
    perCellNs(const std::string &name) const;

    /** Write one JSON object per line: `header` first, then every span
     * with its self time. Returns false when the file cannot be
     * written. */
    bool write(const std::string &path, const std::string &header) const;

  private:
    void close(std::size_t idx);

    std::vector<Span> spanList;
    std::vector<std::size_t> openStack;
    std::map<std::string, double> counters;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
