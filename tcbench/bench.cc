#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/resource.h>

#include "common/digest.hh"
#include "obs/json.hh"
#include "obs/trace_events.hh"
#include "service/source.hh"

namespace tcbench
{

using tcfill::FillOptimizations;

namespace
{

FillOptimizations
only(bool FillOptimizations::*flag)
{
    FillOptimizations o;
    o.*flag = true;
    return o;
}

} // namespace

const std::vector<OptSpec> &
paperSpecs()
{
    static const std::vector<OptSpec> specs = {
        {"none", FillOptimizations::none()},
        {"moves", only(&FillOptimizations::markMoves)},
        {"reassoc", only(&FillOptimizations::reassociate)},
        {"scaled", only(&FillOptimizations::scaledAdds)},
        {"placement", only(&FillOptimizations::placement)},
        {"all", FillOptimizations::all()},
    };
    return specs;
}

const std::vector<OptSpec> &
catalogueSpecs()
{
    static const std::vector<OptSpec> specs = [] {
        std::vector<OptSpec> s = paperSpecs();
        s.push_back({"dce", only(&FillOptimizations::deadCodeElim)});
        s.push_back({"extended", FillOptimizations::extended()});
        return s;
    }();
    return specs;
}

// ---------------------------------------------------------------------
// Pins
// ---------------------------------------------------------------------

std::string
pointName(const std::string &workload, unsigned scale,
          const std::string &spec, std::uint64_t insts)
{
    return workload + "@" + std::to_string(scale) + "/" + spec + "/" +
        std::to_string(insts);
}

std::string
Pins::digest(const tcfill::SimResult &r)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(tcfill::digest::fnv64(
                      tcfill::service::normalizedRecordText(r))));
    return buf;
}

bool
Pins::load(const std::string &path, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open pins file '" + path + "'";
        return false;
    }
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hex;
        if (!(ls >> key >> hex) || hex.size() != 16) {
            err = "malformed pin line '" + line + "'";
            return false;
        }
        pins_[key] = hex;
    }
    return true;
}

bool
Pins::check(const std::string &point, const tcfill::SimResult &r)
{
    const std::string d = digest(r);
    {
        std::lock_guard<std::mutex> lk(mu_);
        seen_[point] = d;
    }
    auto it = pins_.find(point);
    return it != pins_.end() && it->second == d;
}

bool
Pins::save(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto &[k, d] : seen_)
        os << k << ' ' << d << '\n';
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::fail(const std::string &why)
{
    problem(why);
    failed(1);
}

void
Report::failed(std::uint64_t n)
{
    std::lock_guard<std::mutex> lk(mu_);
    failed_ += n;
}

void
Report::problem(const std::string &why)
{
    std::lock_guard<std::mutex> lk(mu_);
    // Keep the log bounded when a systematic fault fails every op.
    if (++warnings_ <= 20)
        std::cout << "FAIL: " << why << '\n';
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!std::isfinite(value)) {
        ++failed_;
        std::cout << "FAIL: metric " << name << " is not finite\n";
        value = 0;
    }
    metrics_.push_back({name, value, unit});
}

void
Report::note(const std::string &text)
{
    std::lock_guard<std::mutex> lk(mu_);
    notes_.push_back(text);
}

void
Report::print() const
{
    std::lock_guard<std::mutex> lk(mu_);
    for (const std::string &n : notes_)
        std::cout << n << '\n';
    for (const Metric &m : metrics_) {
        std::printf("metric %-44s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
    const std::uint64_t failed =
        attempted_ == 0 ? std::max<std::uint64_t>(failed_, 1) : failed_;
    std::printf("fail_ratio %.6f (%llu failed of %llu attempted)\n",
                static_cast<double>(failed) /
                    static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::fflush(stdout);

    std::ostringstream os;
    os << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << tcfill::obs::jsonNumber(m.value) << ", \"unit\": \""
           << m.unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------
// LayerMetrics
// ---------------------------------------------------------------------

LayerMetrics::LayerMetrics()
    : order_{
          {"trace_overhead_pct", "%"},
          {"workloads.build_ms", "ms"},
          {"sim.pool_busy_frac", "frac"},
          {"sim.queue_wait_ms_p50", "ms"},
          {"sim.point_s_max", "s"},
          {"sim.result_cache_hit_ratio", "frac"},
          {"sim.host_ns_per_cycle", "ns"},
          {"sim.host_ns_per_inst", "ns"},
          {"pipeline.fetch_share", "frac"},
          {"pipeline.fill_share", "frac"},
          {"pipeline.dispatch_share", "frac"},
          {"pipeline.issue_share", "frac"},
          {"pipeline.retire_share", "frac"},
          {"pipeline.recovery_share", "frac"},
          {"tracefile.profile_s", "s"},
          {"arch.checkpoint_s", "s"},
          {"arch.restore_s", "s"},
          {"arch.fast_forward_s", "s"},
          {"sim.measure_s", "s"},
          {"arch.checkpoint_pages", "count"},
          {"arch.restored_pages", "count"},
          {"arch.ff_insts", "count"},
          {"tracefile.simpoints", "count"},
          {"arch.functional_mips", "Minst/s"},
          {"trace.tc_hit_rate", "frac"},
          {"bpred.accuracy", "frac"},
          {"fill.segments_per_kinst", "1/kinst"},
          {"fill.avg_segment_len", "inst"},
          {"fill.transformed_frac", "frac"},
          {"uarch.bypass_delayed_frac", "frac"},
          {"pipeline.mispredict_stall_cycles_per_kinst", "cycles/kinst"},
          {"service.frame_encode_us", "us"},
          {"service.frame_decode_us", "us"},
          {"service.rtt_other_us", "us"},
          {"service.store_get_us_p50", "us"},
          {"service.store_get_us_p99", "us"},
          {"service.store_load_ms", "ms"},
          {"service.store_put_us", "us"},
          {"service.log_bytes_per_hit", "B"},
          {"service.dead_byte_ratio", "frac"},
          {"service.hit_ratio", "frac"},
          {"service.coalesced", "count"},
      }
{
}

void
LayerMetrics::set(const std::string &name, double value)
{
    const bool known = std::any_of(
        order_.begin(), order_.end(),
        [&name](const auto &e) { return e.first == name; });
    if (!known) {
        std::cerr << "tcbench: unknown layer metric '" << name << "'\n";
        std::abort();
    }
    values_[name] = value;
}

void
LayerMetrics::emit(Report &rep) const
{
    for (const auto &[name, unit] : order_) {
        auto it = values_.find(name);
        rep.metric(name, it == values_.end() ? 0.0 : it->second, unit);
    }
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

std::uint64_t
Spans::add(std::string name, double start_us, double end_us,
           std::uint64_t parent, std::uint64_t op, int tid,
           std::string args)
{
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = std::move(name);
    s.startUs = start_us;
    s.endUs = std::max(start_us, end_us);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.tid = tid;
    s.args = std::move(args);
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Spans::setEnd(std::uint64_t id, double end_us)
{
    std::lock_guard<std::mutex> lk(mu_);
    Span &s = spans_.at(id - 1);
    s.endUs = std::max(s.startUs, end_us);
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

void
Spans::nameTrack(int tid, std::string name)
{
    std::lock_guard<std::mutex> lk(mu_);
    tracks_[tid] = std::move(name);
}

bool
Spans::write(const std::string &path, const std::string &process) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    tcfill::obs::TraceEventWriter w(os);
    const int pid = tcfill::obs::kTracePidHost;
    w.processName(pid, process);
    std::lock_guard<std::mutex> lk(mu_);
    std::map<int, bool> named;
    for (const Span &s : spans_) {
        if (!named[s.tid]) {
            named[s.tid] = true;
            auto it = tracks_.find(s.tid);
            w.threadName(pid, s.tid,
                         it != tracks_.end() ? it->second
                         : s.tid == 0        ? "main"
                                  : "track " + std::to_string(s.tid));
        }
        std::string args = "\"id\": " + std::to_string(s.id) +
            ", \"parent\": " + std::to_string(s.parent) +
            ", \"op\": " + std::to_string(s.op);
        if (!s.args.empty())
            args += ", " + s.args;
        w.complete(pid, s.tid, s.name, s.startUs, s.endUs - s.startUs,
                   args);
    }
    w.close();
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

void
setModelMetrics(const std::vector<tcfill::SimResult> &results,
                LayerMetrics &lm)
{
    double tc_hits = 0, tc_all = 0, retired = 0, segs = 0, seg_len = 0,
           transformed = 0, bypass = 0, stall = 0, bp = 0;
    for (const tcfill::SimResult &r : results) {
        tc_hits += static_cast<double>(r.tcHits);
        tc_all += static_cast<double>(r.tcHits + r.tcMisses);
        const double n = static_cast<double>(r.retired);
        retired += n;
        bp += r.bpredAccuracy * n;
        segs += static_cast<double>(r.segmentsBuilt);
        seg_len += r.avgSegmentLength * static_cast<double>(r.segmentsBuilt);
        transformed += r.fracTransformed() * n;
        bypass += static_cast<double>(r.bypassDelayed);
        stall += static_cast<double>(r.mispredictStallCycles);
    }
    lm.set("trace.tc_hit_rate", tc_hits / tc_all);
    lm.set("bpred.accuracy", bp / retired);
    lm.set("fill.segments_per_kinst", segs / retired * 1e3);
    lm.set("fill.avg_segment_len", seg_len / segs);
    lm.set("fill.transformed_frac", transformed / retired);
    lm.set("uarch.bypass_delayed_frac", bypass / retired);
    lm.set("pipeline.mispredict_stall_cycles_per_kinst",
           stall / retired * 1e3);
}

void
addStageSeconds(const tcfill::obs::HostProfiler &prof, double out[6])
{
    for (const auto &row : prof.rows()) {
        for (int i = 0; i < 6; ++i) {
            if (std::string_view(row.name) == kStageNames[i])
                out[i] += row.seconds;
        }
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailPercentile(std::vector<double> v, double p, double &used,
               std::size_t beyond)
{
    used = 0;
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    // Nearest rank: index ceil(p/100 * n) - 1, then pull it down so
    // that at least `beyond` samples lie above it.
    std::size_t idx = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    idx = idx == 0 ? 0 : idx - 1;
    if (n > beyond && idx > n - 1 - beyond)
        idx = n - 1 - beyond;
    else if (n <= beyond)
        idx = 0;
    // Never report a tail below the median.
    idx = std::max(idx, (n - 1) / 2);
    used = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
    return v[idx];
}

double
peakRssMb()
{
    // VmHWM, not getrusage(RUSAGE_SELF): ru_maxrss survives execve and
    // would report the launching process's peak when it is larger.
    double kb = 0;
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::strtod(line.c_str() + 6, nullptr);
    }
    return kb / 1024.0;
}

double
childPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace tcbench
