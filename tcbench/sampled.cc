/**
 * @file
 * Workload `sampled`: BBV-sampled full-run estimates with checkpoints
 * (tracefile::runSampled, opts=all) of compress, li and gcc at scale
 * 32 — about 21M, 17M and 6.4M committed instructions — with 16
 * simpoints over 20K-instruction intervals, 20K warmup and the
 * benchmark's pool width of measurement jobs. Most of the time goes
 * to functional fast-forward, profiling and checkpoint capture and
 * restore, with detailed timing a small share. The seed orders the
 * estimates.
 *
 * Set-up happens inside runSampled: setup_s is the time from its entry
 * to the start of its "profile" span (program build, profiling
 * executor and checkpoint store), summed over a pass's estimates. The
 * measurement pool runSampled creates after profiling cannot be told
 * apart from outside and counts as measured time.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "arch/executor.hh"
#include "bench.hh"
#include "common/random.hh"
#include "obs/host_prof.hh"
#include "obs/json.hh"
#include "obs/trace_events.hh"
#include "sim/processor.hh"
#include "tracefile/sample.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

namespace
{

struct Setup
{
    std::vector<std::string> workloads{"compress", "li", "gcc"};
    unsigned scale = 32;
    SimConfig cfg;
    tracefile::SampleSpec spec;
    std::string specName;
};

Setup
makeSetup(const Options &opts)
{
    Setup s;
    s.cfg = SimConfig::withOpts(FillOptimizations::all(), 5);
    s.cfg.name = "opts=all";
    s.spec.k = 16;
    s.spec.interval = 20'000;
    s.spec.warmup = 20'000;
    if (opts.tiny) {
        s.scale = 1;
        s.spec.k = 4;
        s.spec.interval = 5'000;
        s.spec.warmup = 5'000;
    }
    s.spec.jobs = opts.threads;
    s.spec.useCheckpoints = true;
    s.specName = "sample-k" + std::to_string(s.spec.k) + "-i" +
        std::to_string(s.spec.interval) + "-w" +
        std::to_string(s.spec.warmup);
    Random rng(opts.seed);
    shuffle(s.workloads, rng);
    return s;
}

/** Host-profiler sections of runSampled, summed over one pass. */
struct Sections
{
    double profile = 0;     ///< inclusive of checkpoint captures
    double checkpoint = 0;
    double restore = 0;
    double fastForward = 0;
    double measure = 0;

    double total() const
    {
        return profile + restore + fastForward + measure;
    }
};

struct Pass
{
    double setupS = 0;                  ///< summed over the estimates
    bool setupSeen = true;              ///< every estimate had one
    double wallS = 0;
    std::uint64_t insts = 0;
    std::vector<double> latencyUs;
    std::vector<SimResult> results;     ///< in Setup::workloads order
    Sections sections;
};

/**
 * Re-record the host spans runSampled wrote into @p doc (its own
 * trace-event writer, opened at @p epoch_us on the Spans clock) as
 * children of @p parent, mapped to layer names.
 */
void
mergeSampleSpans(const std::string &doc, double epoch_us, Spans &spans,
                 std::uint64_t parent, std::uint64_t op)
{
    static const std::map<std::string, std::string> kLayer = {
        {"profile", "tracefile.profile"},
        {"restore", "arch.restore"},
        {"fastForward", "arch.fast_forward"},
        {"measure", "sim.measure"},
    };
    auto v = obs::JsonValue::tryParse(doc);
    const obs::JsonValue *evs = v ? v->find("traceEvents") : nullptr;
    if (!evs || !evs->isArray())
        return;
    for (const obs::JsonValue &e : evs->arr) {
        const obs::JsonValue *ph = e.find("ph");
        if (ph && ph->str == "M" && e.at("name").str == "thread_name") {
            spans.nameTrack(static_cast<int>(e.at("tid").num()) + 1,
                            "runSampled " + e.at("args").at("name").str);
        }
        if (!ph || ph->str != "X")
            continue;
        auto it = kLayer.find(e.at("name").str);
        const std::string name =
            it == kLayer.end() ? "sampled." + e.at("name").str : it->second;
        const double ts = epoch_us + e.at("ts").num();
        spans.add(name, ts, ts + e.at("dur").num(), parent, op,
                  static_cast<int>(e.at("tid").num()) + 1);
    }
}

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/**
 * Start (writer microseconds) of the "profile" span runSampled wrote
 * into @p doc; -1 when there is none.
 */
double
profileStartUs(const std::string &doc)
{
    auto v = obs::JsonValue::tryParse(doc);
    const obs::JsonValue *evs = v ? v->find("traceEvents") : nullptr;
    if (!evs || !evs->isArray())
        return -1;
    for (const obs::JsonValue &e : evs->arr) {
        const obs::JsonValue *ph = e.find("ph");
        if (ph && ph->str == "X" && e.at("name").str == "profile")
            return e.at("ts").num();
    }
    return -1;
}

Pass
runPass(const Setup &s, Spans *spans)
{
    Pass pass;
    const Clock::time_point t0 = Clock::now();
    std::vector<Interval> when;
    std::vector<double> setup_us;
    std::vector<std::string> docs;
    std::vector<double> epochs;
    for (const std::string &w : s.workloads) {
        // Every run, traced or not, gives runSampled an event writer:
        // its "profile" span starts when the set-up inside the call
        // (program build, profiling executor and checkpoint store)
        // ends. The writer adds a few dozen events per estimate.
        obs::HostProfiler prof;
        std::ostringstream doc;
        obs::TraceEventWriter writer(doc);
        tracefile::SampleSpec spec = s.spec;
        spec.events = &writer;
        if (spans) {
            epochs.push_back(spans->nowUs() - writer.nowUs());
            spec.profiler = &prof;
        }
        const double entry_us = writer.nowUs();
        const Clock::time_point a = Clock::now();
        pass.results.push_back(
            tracefile::runSampled(w, s.scale, s.cfg, spec));
        const Clock::time_point b = Clock::now();
        writer.close();
        when.emplace_back(a, b);
        pass.latencyUs.push_back(secondsBetween(a, b) * 1e6);
        pass.insts += pass.results.back().retired;
        const double profile_us = profileStartUs(doc.str());
        pass.setupSeen = pass.setupSeen && profile_us >= 0;
        setup_us.push_back(std::max(0.0, profile_us - entry_us));
        pass.setupS += setup_us.back() * 1e-6;
        if (spans) {
            docs.push_back(doc.str());
            for (const auto &row : prof.rows()) {
                const std::string n = row.name;
                if (n == "profile")
                    pass.sections.profile += row.seconds;
                else if (n == "checkpoint")
                    pass.sections.checkpoint += row.seconds;
                else if (n == "restore")
                    pass.sections.restore += row.seconds;
                else if (n == "fastForward")
                    pass.sections.fastForward += row.seconds;
                else if (n == "measure")
                    pass.sections.measure += row.seconds;
            }
        }
    }
    pass.wallS = secondsSince(t0);

    if (spans) {
        const std::uint64_t root =
            spans->add("sampled.pass", spans->us(t0),
                       spans->us(t0) + pass.wallS * 1e6, 0, 0);
        for (std::size_t i = 0; i < when.size(); ++i) {
            const double a = spans->us(when[i].first);
            const std::uint64_t est =
                spans->add("sampled.estimate", a,
                           spans->us(when[i].second), root, i + 1);
            spans->add("sampled.setup", a, a + setup_us[i], est, i + 1);
            mergeSampleSpans(docs[i], epochs[i], *spans, est, i + 1);
        }
    }
    return pass;
}

void
checkPass(const Setup &s, const Pass &pass,
          const std::map<std::string, InstSeqNum> &functional, Pins &pins,
          Report &rep)
{
    rep.attempted(pass.results.size());
    if (!pass.setupSeen)
        rep.problem("runSampled wrote no profile span: no set-up time");
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
        const SimResult &r = pass.results[i];
        const std::string &w = s.workloads[i];
        const std::string name = pointName(w, s.scale, "all", 0) + "/" +
            s.specName;
        bool ok = pins.check(name, r);
        if (!ok)
            rep.problem("digest mismatch for " + name + " (" +
                        Pins::digest(r) + ")");
        if (r.retired != functional.at(w)) {
            rep.problem("sampled retired of " + name +
                        " differs from runFunctional");
            ok = false;
        }
        if (!ok || !pass.setupSeen)
            rep.failed(1);
    }
}

} // namespace

void
runSampledWorkload(const Options &opts, Pins &pins, Report &rep)
{
    const Setup s = makeSetup(opts);
    const unsigned threads = opts.threads;

    // Reference instruction counts (and the functional rate), outside
    // every timed region. The builds are timed for workloads.build_ms:
    // runSampled makes the same calls, inside its set-up.
    std::map<std::string, InstSeqNum> functional;
    double func_insts = 0, func_s = 0;
    std::vector<double> build_s;
    Spans spans;
    const std::uint64_t ref_root =
        opts.trace ? spans.add("sampled.reference", spans.nowUs(),
                               spans.nowUs(), 0, 0)
                   : 0;
    for (int rep_i = 0; rep_i < kSetupBlocks; ++rep_i) {
        double sum = 0;
        for (const std::string &w : s.workloads) {
            const Clock::time_point b0 = Clock::now();
            const Program prog = workloads::build(w, s.scale);
            const Clock::time_point b1 = Clock::now();
            sum += secondsBetween(b0, b1);
            if (opts.trace)
                spans.add("workloads.build", spans.us(b0), spans.us(b1),
                          ref_root, 0);
        }
        build_s.push_back(sum);
    }
    for (const std::string &w : s.workloads) {
        const Program prog = workloads::build(w, s.scale);
        const Clock::time_point a = Clock::now();
        functional[w] = runFunctional(prog, ~InstSeqNum(0));
        func_s += secondsSince(a);
        func_insts += static_cast<double>(functional[w]);
    }
    if (opts.trace)
        spans.setEnd(ref_root, spans.nowUs());

    std::vector<Pass> plain, traced;
    const Clock::time_point t0 = Clock::now();
    while (plain.size() < 3 || secondsSince(t0) < opts.seconds) {
        plain.push_back(runPass(s, nullptr));
        checkPass(s, plain.back(), functional, pins, rep);
        if (opts.trace) {
            traced.push_back(runPass(s, &spans));
            checkPass(s, traced.back(), functional, pins, rep);
        }
    }

    if (!opts.trace) {
        std::vector<double> lat;
        for (const Pass &p : plain)
            lat.insert(lat.end(), p.latencyUs.begin(), p.latencyUs.end());
        double used = 0;
        const double p99 = tailPercentile(lat, 99, used);
        rep.metric("setup_s",
                   median(collect(plain, [](const Pass &p) {
                       return p.setupS;
                   })),
                   "s");
        rep.metric("sim_mips", median(collect(plain, [](const Pass &p) {
                       return static_cast<double>(p.insts) / p.wallS * 1e-6;
                   })),
                   "Minst/s");
        rep.metric("op_p50_us", median(lat), "us");
        rep.metric("peak_rss_mb", peakRssMb(), "MiB");
        char line[256];
        std::snprintf(line, sizeof(line),
                      "sampled: %zu estimates per pass at scale %u "
                      "(%llu estimated insts), %zu passes, %u jobs",
                      s.workloads.size(), s.scale,
                      static_cast<unsigned long long>(plain.back().insts),
                      plain.size(), threads);
        rep.note(line);
        std::snprintf(line, sizeof(line),
                      "op_p99_us %.3f us (p%.2f of %zu estimates)", p99,
                      used, lat.size());
        rep.note(line);
        for (std::size_t i = 0; i < s.workloads.size(); ++i) {
            std::string per = "sampled: " + s.workloads[i] + " ms per pass:";
            for (const Pass &p : plain) {
                std::snprintf(line, sizeof(line), " %.1f",
                              p.latencyUs[i] * 1e-3);
                per += line;
            }
            rep.note(per);
        }
        return;
    }

    LayerMetrics lm;
    const double wall_plain =
        median(collect(plain, [](const Pass &p) { return p.wallS; }));
    const double wall_traced =
        median(collect(traced, [](const Pass &p) { return p.wallS; }));
    lm.set("trace_overhead_pct", (wall_traced / wall_plain - 1.0) * 100.0);
    lm.set("workloads.build_ms", median(build_s) * 1e3);
    rep.note("trace.spans " + std::to_string(spans.size()) +
             " spans recorded");

    // Per-pass section times (thread-seconds), medians over passes.
    auto sec = [&](auto field) {
        return median(collect(traced, [&](const Pass &p) {
            return field(p.sections);
        }));
    };
    const double profile =
        sec([](const Sections &x) { return x.profile - x.checkpoint; });
    const double measure = sec([](const Sections &x) { return x.measure; });
    const double total = sec([](const Sections &x) { return x.total(); });
    lm.set("tracefile.profile_s", profile);
    lm.set("arch.checkpoint_s",
           sec([](const Sections &x) { return x.checkpoint; }));
    lm.set("arch.restore_s", sec([](const Sections &x) { return x.restore; }));
    lm.set("arch.fast_forward_s",
           sec([](const Sections &x) { return x.fastForward; }));
    lm.set("sim.measure_s", measure);
    lm.set("sim.pool_busy_frac", total / (threads * wall_traced));

    SimResult::SampleHost sum;
    for (const SimResult &r : plain.back().results) {
        sum.checkpointPages += r.sample.checkpointPages;
        sum.restoredPages += r.sample.restoredPages;
        sum.ffInsts += r.sample.ffInsts;
        sum.simpoints += r.sample.simpoints;
    }
    lm.set("arch.checkpoint_pages", static_cast<double>(sum.checkpointPages));
    lm.set("arch.restored_pages", static_cast<double>(sum.restoredPages));
    lm.set("arch.ff_insts", static_cast<double>(sum.ffInsts));
    lm.set("tracefile.simpoints", static_cast<double>(sum.simpoints));
    lm.set("arch.functional_mips", func_insts / func_s * 1e-6);

    // Stage split of detailed timing: a direct Processor::run of each
    // workload (same config, measurement-sized budget) with and
    // without the stage profiler. Its stage fractions, scaled by the
    // measure share of the pass's thread time, estimate the pipeline
    // share of this workload.
    double stage_s[6] = {}, prof_run_s = 0, run_s = 0, cycles = 0,
           insts = 0;
    SimConfig cfg = s.cfg;
    cfg.maxInsts = (s.spec.warmup + s.spec.interval) * 5;
    for (const std::string &w : s.workloads) {
        const Program prog = workloads::build(w, s.scale);
        {
            Processor proc(prog, cfg);
            const Clock::time_point a = Clock::now();
            const SimResult r = proc.run();
            run_s += secondsSince(a);
            cycles += static_cast<double>(r.cycles);
            insts += static_cast<double>(r.retired);
        }
        obs::HostProfiler hp;
        Processor proc(prog, cfg);
        proc.setHostProfiler(&hp);
        const Clock::time_point a = Clock::now();
        proc.run();
        prof_run_s += secondsSince(a);
        addStageSeconds(hp, stage_s);
    }
    for (int i = 0; i < 6; ++i) {
        lm.set(std::string("pipeline.") + kStageNames[i] + "_share",
               stage_s[i] / prof_run_s * measure / total);
    }
    lm.set("sim.host_ns_per_cycle", run_s / cycles * 1e9);
    lm.set("sim.host_ns_per_inst", run_s / insts * 1e9);
    lm.emit(rep);

    if (!opts.traceOut.empty() &&
        !spans.write(opts.traceOut, "tcbench sampled (host wall clock)"))
        rep.fail("cannot write " + opts.traceOut);
}

} // namespace tcbench
