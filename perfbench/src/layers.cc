#include "layers.hh"

#include <fstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cpu/ooo_core.hh"
#include "frontend/branch_predictor.hh"
#include "frontend/decoder.hh"
#include "memory/hierarchy.hh"
#include "optimizer/optimizer.hh"
#include "power/account.hh"
#include "tracecache/constructor.hh"
#include "tracecache/filter.hh"
#include "tracecache/predictor.hh"
#include "tracecache/selector.hh"
#include "tracecache/trace_cache.hh"
#include "workload/executor.hh"
#include "workload/trace_codec.hh"

namespace perfbench
{

namespace
{

using workload::DynInst;

/** Results of pure calls are folded in here so none is optimized away. */
volatile std::uint64_t gSink = 0;

/** Capture the stream through the cell's own source, timing it. */
std::vector<DynInst>
captureStream(Tracer &tr, std::uint32_t cell, const sim::Workload &wl)
{
    std::vector<DynInst> stream(kLayerInsts);
    std::uint64_t n = 0;
    if (wl.trace) {
        workload::TraceReplaySource src(wl.trace);
        auto s = tr.open("workload.replay", cell);
        while (n < kLayerInsts && src.next(stream[n]))
            ++n;
        s.items(n);
    } else {
        workload::Executor ex(*wl.program, wl.profile);
        auto s = tr.open("workload.exec", cell);
        while (n < kLayerInsts && ex.next(stream[n]))
            ++n;
        s.items(n);
    }
    stream.resize(n);
    return stream;
}

/** The other source over the same program: the executor for a
 * recording, a recording of the captured stream for a generator. */
void
timeOtherSource(Tracer &tr, std::uint32_t cell, const sim::Workload &wl,
                const std::vector<DynInst> &stream,
                const std::string &scratch)
{
    if (wl.trace) {
        // A recording carries the program and seed but not the profile's
        // statistical knobs; the executor still walks the same program.
        workload::Executor ex(*wl.program, wl.profile);
        DynInst d;
        auto s = tr.open("workload.exec", cell);
        std::uint64_t n = 0;
        while (n < stream.size() && ex.next(d))
            ++n;
        s.items(n);
        return;
    }
    {
        workload::TraceWriter writer(*wl.program, wl.profile,
                                     stream.size());
        for (const DynInst &d : stream)
            writer.append(d);
        std::ofstream out(scratch, std::ios::binary | std::ios::trunc);
        const std::string bytes = writer.finish();
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::shared_ptr<const workload::TraceData> trace;
    {
        auto s = tr.open("workload.trace_load", cell);
        trace = workload::loadTraceFile(scratch);
        s.items(trace->numRecords);
    }
    workload::TraceReplaySource src(trace);
    DynInst d;
    auto s = tr.open("workload.replay", cell);
    std::uint64_t n = 0;
    while (src.next(d))
        ++n;
    s.items(n);
}

void
timeFrontend(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
             const std::vector<DynInst> &stream)
{
    std::vector<std::pair<Addr, bool>> branches;
    for (const DynInst &d : stream) {
        if (d.inst->isCondBranch())
            branches.emplace_back(d.pc(), d.taken);
    }
    {
        frontend::BranchPredictor bp(cfg.branchPredictor);
        std::uint64_t sink = 0;
        auto s = tr.open("frontend.bp", cell);
        for (const auto &[pc, taken] : branches) {
            sink += bp.predict(pc);
            bp.update(pc, taken);
        }
        s.items(branches.size());
        gSink = gSink + sink;
    }
    {
        frontend::BranchPredictor bp(cfg.branchPredictor);
        auto s = tr.open("frontend.bp_warm", cell);
        for (const auto &[pc, taken] : branches)
            bp.warmUpdate(pc, taken);
        s.items(branches.size());
    }

    // Cold fetch windows as the simulator assembles them: up to twice
    // the decode width, ending at the first taken CTI, each starting at
    // the first instruction the previous cycle did not decode.
    const frontend::Decoder decoder(cfg.decoder);
    std::vector<const isa::MacroInst *> insts;
    insts.reserve(stream.size());
    for (const DynInst &d : stream)
        insts.push_back(d.inst);
    std::vector<std::pair<std::size_t, std::size_t>> windows;
    for (std::size_t i = 0; i < stream.size();) {
        std::size_t len = 0;
        while (i + len < stream.size()) {
            const DynInst &d = stream[i + len];
            ++len;
            if (len >= cfg.decoder.width * 2 || (d.isCti() && d.taken))
                break;
        }
        windows.emplace_back(i, len);
        i += decoder.throughput(&insts[i], len);
    }
    std::uint64_t sink = 0;
    auto s = tr.open("frontend.decode", cell);
    for (const auto &[start, len] : windows)
        sink += decoder.throughput(&insts[start], len);
    s.items(windows.size());
    gSink = gSink + sink;
}

void
timeMemory(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
           const std::vector<DynInst> &stream)
{
    // Instruction fetch once per line change (as cold fetch does), then
    // every load and store uop's data address.
    enum : std::uint8_t { Fetch, Load, Store };
    std::vector<std::pair<Addr, std::uint8_t>> accesses;
    Addr last_line = ~Addr{0};
    for (const DynInst &d : stream) {
        const Addr line = d.pc() / cfg.memory.l1i.lineBytes;
        if (line != last_line) {
            accesses.emplace_back(d.pc(), Fetch);
            last_line = line;
        }
        for (std::size_t u = 0; u < d.inst->uops.size(); ++u) {
            const auto kind = d.inst->uops[u].kind;
            if (kind == isa::UopKind::Load)
                accesses.emplace_back(d.memAddr[u], Load);
            else if (kind == isa::UopKind::Store)
                accesses.emplace_back(d.memAddr[u], Store);
        }
    }
    {
        memory::Hierarchy h(cfg.memory);
        std::uint64_t sink = 0;
        auto s = tr.open("memory.access", cell);
        for (const auto &[addr, kind] : accesses) {
            sink += kind == Fetch ? h.fetchInst(addr).latency
                                  : h.accessData(addr, kind == Store).latency;
        }
        s.items(accesses.size());
        gSink = gSink + sink;
    }
    memory::Hierarchy h(cfg.memory);
    auto s = tr.open("memory.warm", cell);
    for (const auto &[addr, kind] : accesses) {
        if (kind == Fetch)
            h.warmFetchInst(addr);
        else
            h.warmAccessData(addr, kind == Store);
    }
    s.items(accesses.size());
}

void
timeCore(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
         const std::vector<DynInst> &stream)
{
    // Whole instructions per cycle up to the rename width, as cold
    // dispatch does, then one tick; tick on until the window drains.
    memory::Hierarchy h(cfg.memory);
    power::EnergyAccount acct;
    cpu::OooCore core(cfg.coldCore, &h, &acct);
    const unsigned width = cfg.coldCore.width;
    std::uint64_t uops = 0;
    auto s = tr.open("cpu.core", cell);
    for (std::size_t i = 0; i < stream.size();) {
        unsigned budget = width;
        while (i < stream.size()) {
            const DynInst &d = stream[i];
            const unsigned n = d.numUops();
            if (n > budget || !core.canDispatch(n))
                break;
            for (unsigned u = 0; u < n; ++u) {
                core.dispatch(d.inst->uops[u], d.memAddr[u], u + 1 == n,
                              false);
            }
            budget -= n;
            uops += n;
            ++i;
        }
        core.tick();
    }
    while (!core.drained())
        core.tick();
    s.items(uops);
    tr.count("cpu.cycles", static_cast<double>(core.now()));
}

void
timeTraceUnit(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
              const std::vector<DynInst> &stream)
{
    using namespace tracecache;
    std::vector<TraceCandidate> cands;
    {
        TraceSelector selector;
        TraceCandidate c;
        auto s = tr.open("tracecache.select", cell);
        for (const DynInst &d : stream) {
            selector.feed(d);
            while (selector.pop(c))
                cands.push_back(c);
        }
        s.items(stream.size());
    }
    {
        CounterFilter filter(cfg.hotFilter);
        std::uint64_t sink = 0;
        auto s = tr.open("tracecache.filter", cell);
        for (const TraceCandidate &c : cands)
            sink += filter.bump(c.tid);
        s.items(cands.size());
        gSink = gSink + sink;
    }

    // Which candidates the simulator would construct: the hot filter
    // promotes a TID, it is built once and its count restarts.
    std::vector<std::size_t> promoted;
    {
        CounterFilter filter(cfg.hotFilter);
        std::unordered_set<std::uint64_t> built;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const Tid &tid = cands[i].tid;
            if (filter.promoted(filter.bump(tid)) &&
                built.insert(tid.hash()).second) {
                promoted.push_back(i);
                filter.reset(tid);
            }
        }
    }
    std::vector<Trace> traces;
    traces.reserve(promoted.size());
    {
        auto s = tr.open("tracecache.construct", cell);
        for (std::size_t i : promoted)
            traces.push_back(constructTrace(cands[i]));
        s.items(traces.size());
    }
    {
        TraceCache cache(cfg.traceCache);
        std::vector<Trace> fresh = traces;
        std::size_t next = 0;
        std::uint64_t calls = 0;
        auto s = tr.open("tracecache.lookup", cell);
        for (std::size_t i = 0; i < cands.size(); ++i) {
            gSink = gSink + static_cast<bool>(cache.lookup(cands[i].tid));
            ++calls;
            if (next < promoted.size() && promoted[next] == i) {
                cache.insert(std::move(fresh[next++]));
                ++calls;
            }
            if ((i & 63) == 63)
                cache.reclaimLimbo();
        }
        s.items(calls);
    }
    {
        TracePredictor predictor(cfg.tracePredictor);
        Tid prev, prev_prev, out;
        std::uint64_t sink = 0;
        auto s = tr.open("tracecache.tp", cell);
        for (const TraceCandidate &c : cands) {
            sink += predictor.predict(prev, c.tid.startPc, out);
            predictor.train(prev_prev, c.tid.startPc, c.tid);
            prev_prev = prev;
            prev = c.tid;
        }
        s.items(cands.size());
        gSink = gSink + sink;
    }
    if (!cfg.hasOptimizer)
        return;

    // Blazing traces: built traces whose executions pass the blazing
    // filter, each optimized once.
    std::vector<Trace> blazing;
    {
        CounterFilter blaze(cfg.blazeFilter);
        std::unordered_set<std::uint64_t> done;
        std::size_t next = 0;
        std::unordered_map<std::uint64_t, std::size_t> built;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            const Tid &tid = cands[i].tid;
            if (next < promoted.size() && promoted[next] == i) {
                built.emplace(tid.hash(), next++);
                continue;
            }
            auto it = built.find(tid.hash());
            if (it == built.end() || done.count(tid.hash()))
                continue;
            if (blaze.promoted(blaze.bump(tid))) {
                done.insert(tid.hash());
                blazing.push_back(traces[it->second]);
            }
        }
    }
    optimizer::TraceOptimizer opt(cfg.optimizer);
    std::uint64_t sink = 0;
    auto s = tr.open("optimizer.optimize", cell);
    for (Trace &t : blazing)
        sink += opt.optimize(t).uopsAfter;
    s.items(blazing.size());
    gSink = gSink + sink;
}

} // namespace

void
timeLayers(Tracer &tr, std::uint32_t cell, const sim::ModelConfig &cfg,
           const sim::Workload &wl, const std::string &scratch)
{
    auto layers = tr.open("layers", cell);
    const std::vector<DynInst> stream = captureStream(tr, cell, wl);
    timeOtherSource(tr, cell, wl, stream, scratch);
    timeFrontend(tr, cell, cfg, stream);
    timeMemory(tr, cell, cfg, stream);
    timeCore(tr, cell, cfg, stream);
    if (cfg.hasTraceCache)
        timeTraceUnit(tr, cell, cfg, stream);
}

} // namespace perfbench
