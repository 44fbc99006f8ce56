/**
 * @file
 * Shared pieces of the tcfill benchmark program: run options, the
 * result report (end-to-end and per-layer metrics plus the operation
 * and failure counts), the in-memory span recorder of the traced run,
 * the digest pins that gate correctness, and small timing helpers.
 *
 * The benchmark calls only the simulator's public entry points and times
 * them from outside; nothing here reaches into src/.
 */

#ifndef TCBENCH_BENCH_HH
#define TCBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fill/passes.hh"
#include "obs/host_prof.hh"
#include "sim/result.hh"

namespace tcbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrunken inputs for the smoke test (pins cover them too). */
    bool tiny = false;
    std::string pinsPath;
    /** When set, write every computed digest here (regeneration). */
    std::string writePins;
    /** Directory for the service sessions' stores and sockets. */
    std::string scratch = ".bench_build/run";
    /** Trace-event file of the traced run (none when empty). */
    std::string traceOut;
    /** Pool worker threads: min(4, host cores - 1). */
    unsigned threads = 4;
};

/** One named optimization set of the paper's fill unit. */
struct OptSpec
{
    const char *label;
    tcfill::FillOptimizations opts;
};

/** none, moves, reassoc, scaled, placement, all (Figs. 3-6, 8). */
const std::vector<OptSpec> &paperSpecs();
/** paperSpecs() plus the dead-code and extended sets (8 specs). */
const std::vector<OptSpec> &catalogueSpecs();

/**
 * Digest pins: "<point> <fnv64 hex>" lines. Every simulated record
 * the benchmark produces is hashed (FNV-64 of the service's
 * normalizedRecordText, the config label fixed to "opts=<spec>") and
 * compared against its pin; a missing pin is a failure too.
 */
class Pins
{
  public:
    bool load(const std::string &path, std::string &err);
    /** True when @p r matches the pin for @p point. */
    bool check(const std::string &point, const tcfill::SimResult &r);
    /** Write every digest check() saw (for --write-pins). */
    bool save(const std::string &path) const;

    static std::string digest(const tcfill::SimResult &r);

  private:
    std::map<std::string, std::string> pins_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> seen_;
};

/** Pin key of one live point: "<workload>@<scale>/<spec>/<insts>". */
std::string pointName(const std::string &workload, unsigned scale,
                      const std::string &spec, std::uint64_t insts);

/**
 * Result of one benchmark run: operation counts, failures, and the
 * metrics printed as text lines and in the final JSON object.
 */
class Report
{
  public:
    void attempted(std::uint64_t n) { attempted_ += n; }
    /** Count one failed operation and print why. */
    void fail(const std::string &why);
    /** Count @p n failed operations whose cause problem() printed. */
    void failed(std::uint64_t n);
    /** Print a check failure without counting an operation. */
    void problem(const std::string &why);

    /** One metric of the final JSON object. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** A human-readable line printed with the metrics. */
    void note(const std::string &text);

    std::uint64_t failures() const { return failed_; }

    /** Text lines, then the final one-line JSON object, to stdout. */
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t warnings_ = 0;
    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    mutable std::mutex mu_;
};

/**
 * The per-layer metric set, identical for every workload: a layer a
 * workload does not exercise reads 0. Filled by name; set() aborts on
 * a name outside the set.
 */
class LayerMetrics
{
  public:
    LayerMetrics();
    void set(const std::string &name, double value);
    /** Move every layer metric into @p rep, in declaration order. */
    void emit(Report &rep) const;

  private:
    std::vector<std::pair<std::string, std::string>> order_;
    std::map<std::string, double> values_;
};

/**
 * In-memory span recorder of the traced run. A span has a name, start
 * and end (microseconds since the recorder opened), its own id, its
 * parent's id (0 = root) and an operation id shared by every span of
 * one sim point, estimate or request. Spans are written at exit as
 * Chrome trace events through obs::TraceEventWriter; ids ride in args.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0;
        double endUs = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t op = 0;
        int tid = 0;
        std::string args;   ///< extra numeric args (JSON members)
    };

    Spans() : epoch_(Clock::now()) {}

    double us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }
    double nowUs() const { return us(Clock::now()); }

    /** Stretch span @p id to end at @p end_us (a root opened early). */
    void setEnd(std::uint64_t id, double end_us);

    /** Record a finished span; returns its id. */
    std::uint64_t add(std::string name, double start_us, double end_us,
                      std::uint64_t parent, std::uint64_t op, int tid = 0,
                      std::string args = {});

    /** Name track @p tid in the written file (default "track <tid>"). */
    void nameTrack(int tid, std::string name);

    std::size_t size() const;

    /** Write every span as a trace-event document. */
    bool write(const std::string &path, const std::string &process) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<int, std::string> tracks_;
};

/**
 * Simulated (exact) counters of @p results, aggregated weighting by
 * retired instructions: trace-cache hit rate, predictor accuracy,
 * segment rate and length, transformed and bypass-delayed fractions,
 * mispredict stall cycles. Identical for any host-only change.
 */
void setModelMetrics(const std::vector<tcfill::SimResult> &results,
                     LayerMetrics &lm);

/**
 * Set-up repetitions per run: set-up takes a millisecond or less, so
 * setup_s is taken over many. Where set-ups can run back to back
 * (sweep), kSetupBlocks blocks of kSetupBlock are each timed as one
 * interval and setup_s is the median block's per-set-up mean; where
 * they cannot (service), it is the median of kSetupBlocks *
 * kSetupBlock single timings.
 */
constexpr int kSetupBlocks = 15;
constexpr int kSetupBlock = 10;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Percentile @p p (0-100) of @p v by nearest rank, lowered to the
 * highest percentile that leaves at least @p beyond samples above it
 * (but not below the median);
 * @p used receives the percentile actually reported.
 */
double tailPercentile(std::vector<double> v, double p, double &used,
                      std::size_t beyond = 10);

/** Peak RSS of this process in MiB (VmHWM). */
double peakRssMb();

/** Largest peak RSS in MiB of this process's reaped children. */
double childPeakRssMb();

/** @p f applied to every element of @p xs. */
template <typename T, typename F>
std::vector<double>
collect(const std::vector<T> &xs, F f)
{
    std::vector<double> v;
    for (const T &x : xs)
        v.push_back(f(x));
    return v;
}

/** The six pipeline-stage sections of obs::HostProfiler. */
inline constexpr const char *kStageNames[6] = {
    "fetch", "fill", "dispatch", "issue", "retire", "recovery"};

/** Add @p prof's per-stage seconds to @p out (kStageNames order). */
void addStageSeconds(const tcfill::obs::HostProfiler &prof,
                     double out[6]);

/** Deterministic Fisher-Yates shuffle driven by tcfill::Random. */
template <typename T, typename Rng>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

// The three workloads. Each fills @p rep with its end-to-end metrics
// (untraced) or its per-layer metrics (opts.trace).
void runSweep(const Options &opts, Pins &pins, Report &rep);
void runSampledWorkload(const Options &opts, Pins &pins, Report &rep);
void runService(const Options &opts, Pins &pins, Report &rep);

} // namespace tcbench

#endif // TCBENCH_BENCH_HH
