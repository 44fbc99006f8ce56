/**
 * @file
 * Workload `sweep`: the paper's design-space sweep. Every suite
 * workload runs under none, moves, reassoc, scaled, placement and all
 * (fill latency 5) at the paper-bench budget on a fresh SimRunner per
 * pass. Points are submitted figure by figure, each figure asking for
 * the baseline and its variant, so a baseline is requested six times
 * and simulated once. The seed shuffles the figure order and the
 * workload order inside each figure.
 *
 * Points ride SimRunner::submitKeyed under simPointKey with the same
 * job SimRunner::submit runs, plus start/end stamps, so per-point
 * queue wait and run time are measured from outside the pool.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/random.hh"
#include "obs/host_prof.hh"
#include "sim/processor.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;

namespace
{

/** The paper benches' per-run instruction budget (bench::kRunInsts). */
constexpr InstSeqNum kRunInsts = 220'000;
constexpr InstSeqNum kTinyInsts = 20'000;

struct Request
{
    std::size_t workload;
    std::size_t spec;
};

struct Plan
{
    std::vector<std::string> workloads;
    std::vector<SimConfig> configs;     ///< one per paperSpecs() entry
    std::vector<Request> requests;      ///< submission order
    InstSeqNum insts = 0;

    std::size_t points() const
    {
        return workloads.size() * configs.size();
    }
    std::size_t point(const Request &r) const
    {
        return r.workload * configs.size() + r.spec;
    }
};

Plan
makePlan(const Options &opts)
{
    Plan plan;
    plan.insts = opts.tiny ? kTinyInsts : kRunInsts;
    if (opts.tiny) {
        plan.workloads = {"compress", "li", "go"};
    } else {
        for (const workloads::Workload &w : workloads::suite())
            plan.workloads.push_back(w.name);
    }
    for (const OptSpec &s : paperSpecs()) {
        SimConfig cfg = SimConfig::withOpts(s.opts, 5);
        cfg.name = std::string("opts=") + s.label;
        cfg.maxInsts = plan.insts;
        plan.configs.push_back(cfg);
    }

    Random rng(opts.seed);
    std::vector<std::size_t> figures(plan.configs.size());
    for (std::size_t i = 0; i < figures.size(); ++i)
        figures[i] = i;
    shuffle(figures, rng);
    for (std::size_t fig : figures) {
        std::vector<std::size_t> order(plan.workloads.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng);
        for (std::size_t w : order) {
            plan.requests.push_back({w, 0});    // the baseline
            if (fig != 0)
                plan.requests.push_back({w, fig});
        }
    }
    return plan;
}

/** Everything one pass measured. */
struct Pass
{
    double setupS = 0;
    double buildS = 0;                  ///< workloads::build, summed
    double wallS = 0;
    std::uint64_t insts = 0;            ///< retired, distinct points
    std::uint64_t cycles = 0;
    std::vector<double> pointS;         ///< per distinct point, run time
    std::vector<double> queueS;         ///< per distinct point
    std::vector<SimResult> results;     ///< per distinct point
    double cacheHitRatio = 0;
    double stageS[6] = {};              ///< fetch..recovery, traced only
};

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/**
 * Lane of each interval [start[i], end[i]] such that intervals sharing
 * a lane never overlap: each goes to the lowest lane free at its start.
 */
std::vector<int>
assignLanes(const std::vector<Clock::time_point> &start,
            const std::vector<Clock::time_point> &end)
{
    std::vector<std::size_t> order(start.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return start[a] < start[b];
              });
    std::vector<int> lane(start.size());
    std::vector<Clock::time_point> free_at;
    for (std::size_t i : order) {
        std::size_t l = 0;
        while (l < free_at.size() && free_at[l] > start[i])
            ++l;
        if (l == free_at.size())
            free_at.push_back(end[i]);
        else
            free_at[l] = end[i];
        lane[i] = static_cast<int>(l);
    }
    return lane;
}

/** Set-up: the pool and every workload's program. */
std::unique_ptr<SimRunner>
setUp(const Plan &plan, unsigned threads, std::vector<Interval> &builds)
{
    auto runner = std::make_unique<SimRunner>(threads);
    for (const std::string &w : plan.workloads) {
        const Clock::time_point b0 = Clock::now();
        runner->program(w, 1);
        builds.emplace_back(b0, Clock::now());
    }
    return runner;
}

Pass
runPass(const Plan &plan, unsigned threads, Spans *spans)
{
    Pass pass;
    const std::size_t npoints = plan.points();

    const Clock::time_point t_setup = Clock::now();
    std::vector<Interval> builds;
    auto runner = setUp(plan, threads, builds);
    pass.setupS = secondsSince(t_setup);
    for (const auto &[b0, b1] : builds)
        pass.buildS += secondsBetween(b0, b1);

    struct Stamp
    {
        Clock::time_point start, end;
        std::thread::id worker;
    };
    std::vector<Stamp> stamps(npoints);
    std::deque<obs::HostProfiler> profilers;
    if (spans)
        profilers.resize(npoints);

    std::vector<Clock::time_point> submitted(plan.requests.size());
    std::vector<std::shared_future<SimResult>> futs(plan.requests.size());
    std::vector<std::size_t> first(npoints, plan.requests.size());

    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
        const Request &rq = plan.requests[i];
        const std::size_t p = plan.point(rq);
        const std::string &w = plan.workloads[rq.workload];
        const SimConfig &cfg = plan.configs[rq.spec];
        if (first[p] == plan.requests.size())
            first[p] = i;
        obs::HostProfiler *prof = spans ? &profilers[p] : nullptr;
        SimRunner *r = runner.get();
        Stamp *st = &stamps[p];
        submitted[i] = Clock::now();
        futs[i] = runner->submitKeyed(
            simPointKey(w, 1, cfg), [r, st, w, cfg, prof]() {
                st->start = Clock::now();
                st->worker = std::this_thread::get_id();
                auto prog = r->program(w, 1);
                Processor proc(*prog, cfg);
                proc.setHostProfiler(prof);
                SimResult res = proc.run();
                res.sourceDigest = workloadDigest(w, 1);
                st->end = Clock::now();
                return res;
            });
    }
    for (auto &f : futs)
        f.wait();
    pass.wallS = secondsSince(t0);

    const SimRunner::CacheStats cs = runner->cacheStats();
    pass.cacheHitRatio = static_cast<double>(cs.resultHits) /
        static_cast<double>(cs.resultHits + cs.resultMisses);
    runner.reset();

    pass.results.resize(npoints);
    for (std::size_t p = 0; p < npoints; ++p) {
        pass.results[p] = futs[first[p]].get();
        pass.insts += pass.results[p].retired;
        pass.cycles += pass.results[p].cycles;
        pass.pointS.push_back(
            secondsBetween(stamps[p].start, stamps[p].end));
        pass.queueS.push_back(
            secondsBetween(submitted[first[p]], stamps[p].start));
    }
    if (spans) {
        const std::uint64_t root =
            spans->add("sweep.pass", spans->us(t_setup),
                       spans->us(t0) + pass.wallS * 1e6, 0, 0);
        const std::uint64_t setup =
            spans->add("sim.setup", spans->us(t_setup),
                       spans->us(t_setup) + pass.setupS * 1e6, root, 0);
        for (std::size_t i = 0; i < builds.size(); ++i) {
            spans->add("workloads.build", spans->us(builds[i].first),
                       spans->us(builds[i].second), setup, 0);
        }
        // Tracks: the pass on 0, each pool worker's points on its own
        // track (1..threads), and the overlapping requests spread over
        // further tracks so that spans on one track never overlap.
        std::vector<std::thread::id> workers;
        auto worker_track = [&](std::thread::id id) {
            auto it = std::find(workers.begin(), workers.end(), id);
            if (it == workers.end())
                it = workers.insert(workers.end(), id);
            return 1 + static_cast<int>(it - workers.begin());
        };
        std::vector<Clock::time_point> ready(plan.requests.size());
        for (std::size_t i = 0; i < plan.requests.size(); ++i) {
            const std::size_t p = plan.point(plan.requests[i]);
            ready[i] = std::max(stamps[p].end, submitted[i]);
        }
        const int request_base = 1 + static_cast<int>(threads);
        const std::vector<int> lane = assignLanes(submitted, ready);
        std::vector<std::uint64_t> req_span(plan.requests.size());
        for (std::size_t i = 0; i < plan.requests.size(); ++i) {
            const std::size_t p = plan.point(plan.requests[i]);
            req_span[i] = spans->add("sim.request", spans->us(submitted[i]),
                                     spans->us(ready[i]), root, p + 1,
                                     request_base + lane[i]);
        }
        for (std::size_t p = 0; p < npoints; ++p) {
            const std::size_t i = first[p];
            spans->add("sim.queue_wait", spans->us(submitted[i]),
                       spans->us(stamps[p].start), req_span[i], p + 1,
                       request_base + lane[i]);
            double stage_s[6] = {};
            addStageSeconds(profilers[p], stage_s);
            std::ostringstream args;
            for (int s = 0; s < 6; ++s) {
                pass.stageS[s] += stage_s[s];
                args << (s ? ", " : "") << '"' << kStageNames[s]
                     << "_s\": " << stage_s[s];
            }
            spans->add("sim.point", spans->us(stamps[p].start),
                       spans->us(stamps[p].end), req_span[i], p + 1,
                       worker_track(stamps[p].worker), args.str());
        }
        for (unsigned t = 0; t < threads; ++t)
            spans->nameTrack(1 + static_cast<int>(t),
                             "worker " + std::to_string(t));
        const int lanes =
            lane.empty() ? 0 : *std::max_element(lane.begin(), lane.end()) + 1;
        for (int l = 0; l < lanes; ++l)
            spans->nameTrack(request_base + l,
                             "requests " + std::to_string(l));
    }
    return pass;
}

/** Digest pins and the retired-count invariant, per distinct point. */
void
checkPass(const Plan &plan, const Pass &pass, Pins &pins, Report &rep)
{
    const std::size_t nspec = plan.configs.size();
    std::vector<bool> bad(plan.points(), false);
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
        for (std::size_t s = 0; s < nspec; ++s) {
            const std::size_t p = w * nspec + s;
            SimResult r = pass.results[p];
            r.config = plan.configs[s].name;
            const std::string name =
                pointName(plan.workloads[w], 1, paperSpecs()[s].label,
                          plan.insts);
            if (!pins.check(name, r)) {
                bad[p] = true;
                rep.problem("digest mismatch for " + name + " (" +
                            Pins::digest(r) + ")");
            }
            // The fill-unit transforms are ISA-invisible: every config
            // of one workload retires the same instruction count.
            if (r.retired != pass.results[w * nspec].retired) {
                bad[p] = true;
                rep.problem("retired count of " + name +
                            " differs from opts=none");
            }
        }
    }
    rep.attempted(plan.points());
    rep.failed(static_cast<std::uint64_t>(
        std::count(bad.begin(), bad.end(), true)));
}

double
ipcGainPct(const Plan &plan, const Pass &pass)
{
    const std::size_t nspec = plan.configs.size();
    const std::size_t all = nspec - 1;
    double log_sum = 0;
    for (std::size_t w = 0; w < plan.workloads.size(); ++w) {
        log_sum += std::log(pass.results[w * nspec + all].ipc() /
                            pass.results[w * nspec].ipc());
    }
    return (std::exp(log_sum / static_cast<double>(plan.workloads.size())) -
            1.0) *
        100.0;
}

} // namespace

void
runSweep(const Options &opts, Pins &pins, Report &rep)
{
    const Plan plan = makePlan(opts);
    const unsigned threads = opts.threads;
    std::vector<Pass> plain, traced;
    Spans spans;
    // Set-up blocks run between the passes, so that setup_s samples the
    // host over the whole run as the passes do. The runners of a block
    // stay alive until its clock stops: teardown is not set-up.
    std::vector<double> setups;
    auto setUpBlock = [&] {
        std::vector<std::unique_ptr<SimRunner>> keep;
        keep.reserve(kSetupBlock);
        std::vector<Interval> builds;
        const Clock::time_point t = Clock::now();
        for (int i = 0; i < kSetupBlock; ++i)
            keep.push_back(setUp(plan, threads, builds));
        setups.push_back(secondsSince(t) / kSetupBlock);
    };

    const Clock::time_point t0 = Clock::now();
    while (plain.size() < 3 || secondsSince(t0) < opts.seconds) {
        setUpBlock();
        setUpBlock();
        plain.push_back(runPass(plan, threads, nullptr));
        checkPass(plan, plain.back(), pins, rep);
        if (opts.trace) {
            traced.push_back(runPass(plan, threads, &spans));
            checkPass(plan, traced.back(), pins, rep);
        }
    }

    while (setups.size() < kSetupBlocks)
        setUpBlock();

    const double wall_plain =
        median(collect(plain, [](const Pass &p) { return p.wallS; }));

    if (!opts.trace) {
        // One operation is one simulated point; its latency is its run
        // time on a worker (queue wait is a per-layer metric, and
        // depends on the seeded submission order).
        std::vector<double> lat;
        for (const Pass &p : plain) {
            for (double s : p.pointS)
                lat.push_back(s * 1e6);
        }
        double used = 0;
        const double p99 = tailPercentile(lat, 99, used);
        rep.metric("setup_s", median(setups), "s");
        rep.metric("sim_mips", median(collect(plain, [](const Pass &p) {
                       return static_cast<double>(p.insts) / p.wallS * 1e-6;
                   })),
                   "Minst/s");
        rep.metric("op_p50_us", median(lat), "us");
        rep.metric("peak_rss_mb", peakRssMb(), "MiB");

        char line[256];
        std::snprintf(line, sizeof(line),
                      "sweep: %zu workloads x %zu configs at %llu insts, "
                      "%zu requests (%zu simulated) per pass, %zu passes, "
                      "%u threads",
                      plan.workloads.size(), plan.configs.size(),
                      static_cast<unsigned long long>(plan.insts),
                      plan.requests.size(), plan.points(), plain.size(),
                      threads);
        rep.note(line);
        std::snprintf(line, sizeof(line),
                      "op_p99_us %.3f us (p%.2f of %zu points)", p99, used,
                      lat.size());
        rep.note(line);
        std::string per_pass = "sweep: sim_mips per pass:";
        for (const Pass &p : plain) {
            std::snprintf(line, sizeof(line), " %.3f",
                          static_cast<double>(p.insts) / p.wallS * 1e-6);
            per_pass += line;
        }
        rep.note(per_pass);
        std::snprintf(line, sizeof(line),
                      "ipc_gain_pct %+.2f %% (simulated geomean "
                      "IPC(all)/IPC(none) - 1; the paper reports ~+18%%)",
                      ipcGainPct(plan, plain.back()));
        rep.note(line);
        return;
    }

    LayerMetrics lm;
    const double wall_traced =
        median(collect(traced, [](const Pass &p) { return p.wallS; }));
    lm.set("trace_overhead_pct", (wall_traced / wall_plain - 1.0) * 100.0);
    rep.note("trace.spans " + std::to_string(spans.size()) +
             " spans recorded");

    lm.set("workloads.build_ms",
           median(collect(traced, [](const Pass &p) { return p.buildS; })) *
               1e3);

    // Pool and host-cost figures from the untraced passes (the stage
    // timers would inflate them); the stage split from the traced ones.
    std::vector<double> queue, busy;
    double point_max = 0, point_s = 0, insts = 0, cycles = 0;
    for (const Pass &p : plain) {
        queue.insert(queue.end(), p.queueS.begin(), p.queueS.end());
        double sum = 0;
        for (double s : p.pointS) {
            sum += s;
            point_max = std::max(point_max, s);
        }
        busy.push_back(sum / (threads * p.wallS));
        point_s += sum;
        insts += static_cast<double>(p.insts);
        cycles += static_cast<double>(p.cycles);
    }
    lm.set("sim.pool_busy_frac", median(busy));
    lm.set("sim.queue_wait_ms_p50", median(queue) * 1e3);
    lm.set("sim.point_s_max", point_max);
    lm.set("sim.result_cache_hit_ratio", plain.back().cacheHitRatio);
    lm.set("sim.host_ns_per_cycle", point_s / cycles * 1e9);
    lm.set("sim.host_ns_per_inst", point_s / insts * 1e9);

    double stage_s[6] = {}, traced_point_s = 0;
    for (const Pass &p : traced) {
        for (int s = 0; s < 6; ++s)
            stage_s[s] += p.stageS[s];
        for (double s : p.pointS)
            traced_point_s += s;
    }
    for (int s = 0; s < 6; ++s) {
        lm.set(std::string("pipeline.") + kStageNames[s] + "_share",
               stage_s[s] / traced_point_s);
    }
    setModelMetrics(plain.back().results, lm);
    lm.emit(rep);

    if (!opts.traceOut.empty() &&
        !spans.write(opts.traceOut, "tcbench sweep (host wall clock)"))
        rep.fail("cannot write " + opts.traceOut);
}

} // namespace tcbench
