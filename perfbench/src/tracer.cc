#include "tracer.hh"

#include <fstream>

namespace perfbench
{

Tracer::Scope
Tracer::open(const std::string &name, std::uint32_t cell)
{
    Span span;
    span.name = name;
    span.cell = cell;
    span.parent = openStack.empty()
                      ? -1
                      : static_cast<std::int32_t>(openStack.back());
    spanList.push_back(std::move(span));
    const std::size_t idx = spanList.size() - 1;
    openStack.push_back(idx);
    // Last, so the bookkeeping above is outside the measured interval.
    spanList[idx].startNs = nowNs();
    return Scope(*this, idx);
}

void
Tracer::close(std::size_t idx)
{
    spanList[idx].endNs = nowNs();
    // Scopes are stack objects, so they close in reverse open order.
    if (!openStack.empty() && openStack.back() == idx)
        openStack.pop_back();
}

double
Tracer::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    std::vector<std::int64_t> self(spanList.size());
    for (std::size_t i = 0; i < spanList.size(); ++i)
        self[i] = spanList[i].durationNs();
    // Children never overlap one another (single thread, strict
    // nesting), so subtracting each child's duration from its parent
    // removes exactly the covered part of the parent's interval.
    for (const Span &s : spanList) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durationNs();
    }
    return self;
}

std::int64_t
Tracer::totalNs(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spanList) {
        if (s.name == name)
            ns += s.durationNs();
    }
    return ns;
}

std::uint64_t
Tracer::totalItems(const std::string &name) const
{
    std::uint64_t n = 0;
    for (const Span &s : spanList) {
        if (s.name == name)
            n += s.items;
    }
    return n;
}

std::size_t
Tracer::spanCount(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spanList)
        n += s.name == name;
    return n;
}

std::map<std::uint32_t, std::int64_t>
Tracer::perCellNs(const std::string &name) const
{
    std::map<std::uint32_t, std::int64_t> out;
    for (const Span &s : spanList) {
        if (s.name == name)
            out[s.cell] += s.durationNs();
    }
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &header) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << header << '\n';
    const auto self = selfTimes();
    const std::int64_t origin =
        spanList.empty() ? 0 : spanList.front().startNs;
    for (std::size_t i = 0; i < spanList.size(); ++i) {
        const Span &s = spanList[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"cell\": "
            << (s.cell == kNoCell ? -1 : static_cast<std::int64_t>(s.cell))
            << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.startNs - origin
            << ", \"end_ns\": " << s.endNs - origin
            << ", \"self_ns\": " << self[i] << ", \"items\": " << s.items
            << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
