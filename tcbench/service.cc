/**
 * @file
 * Workload `service`: in-process tcfilld sessions, each on a fresh
 * store with 2 shards of 1 thread. A session has two phases:
 *
 *  - cold: the 120-point catalogue (15 workloads x 8 opt specs at 20K
 *    insts) sent as batched sweeps in seeded order — simulate, put,
 *    stream;
 *  - warm: a closed loop of two client connections, each sending
 *    one-point sweeps drawn from the catalogue by a seeded Zipf(1.0)
 *    — store get plus the TOUCH append, behind the daemon's mutex.
 *
 * The traced run replays the session's warm key sequence through
 * ResultStore::get on a copy of the store, and the frames of each
 * warm request — its payloads rebuilt field for field as the client
 * and daemon write them, around the record the get returned — through
 * encodeFrame/decodeFrame, to split the round trip.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "common/random.hh"
#include "obs/json.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/source.hh"
#include "service/store.hh"
#include "sim/config_io.hh"
#include "sim/runner.hh"
#include "workloads/suite.hh"

namespace tcbench
{

using namespace tcfill;
using service::ServiceClient;

namespace fs = std::filesystem;

namespace
{

constexpr unsigned kShards = 2;
constexpr unsigned kConnections = 2;

struct Catalogue
{
    std::vector<ServiceClient::Point> points;
    std::vector<std::string> names;     ///< pin names
    std::vector<std::string> keys;      ///< simPointKey
    std::vector<std::size_t> spec;      ///< catalogueSpecs() index
    std::vector<std::size_t> coldOrder;
    std::size_t batch = 40;
    /** Warm requests drawn per connection, per session. */
    std::size_t warmPerConn = 1000;
    /** Per connection: the Zipf-drawn catalogue indices. */
    std::vector<std::vector<std::size_t>> warm;
    std::uint64_t insts = 20'000;
};

Catalogue
makeCatalogue(const Options &opts)
{
    Catalogue c;
    std::vector<std::string> names;
    if (opts.tiny) {
        names = {"compress", "li"};
        c.insts = 5'000;
        c.batch = 8;
        c.warmPerConn = 60;
    } else {
        for (const workloads::Workload &w : workloads::suite())
            names.push_back(w.name);
    }
    const auto &specs = catalogueSpecs();
    for (const std::string &w : names) {
        for (std::size_t s = 0; s < specs.size(); ++s) {
            ServiceClient::Point p;
            p.workload = w;
            p.scale = 1;
            p.config = SimConfig::withOpts(specs[s].opts, 5);
            p.config.name = std::string("opts=") + specs[s].label;
            p.config.maxInsts = c.insts;
            c.names.push_back(pointName(w, 1, specs[s].label, c.insts));
            c.keys.push_back(simPointKey(w, 1, p.config));
            c.spec.push_back(s);
            c.points.push_back(std::move(p));
        }
    }

    Random rng(opts.seed);
    const std::size_t n = c.points.size();
    c.coldOrder.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        c.coldOrder[i] = i;
    shuffle(c.coldOrder, rng);

    // Zipf(1.0) over a seeded popularity ranking of the catalogue.
    std::vector<std::size_t> rank = c.coldOrder;
    shuffle(rank, rng);
    std::vector<double> cdf(n);
    double acc = 0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / static_cast<double>(k + 1);
        cdf[k] = acc;
    }
    c.warm.resize(kConnections);
    for (auto &seq : c.warm) {
        for (std::size_t j = 0; j < c.warmPerConn; ++j) {
            const double u = static_cast<double>(rng.next() >> 11) *
                0x1.0p-53 * acc;
            const std::size_t k = static_cast<std::size_t>(
                std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
            seq.push_back(rank[std::min(k, n - 1)]);
        }
    }
    return c;
}

/** What one session measured. */
struct Session
{
    bool ok = false;
    double setupS = 0;
    double coldS = 0;
    double warmS = 0;
    std::uint64_t coldInsts = 0;
    std::vector<double> hitUs;
    std::vector<SimResult> cold;        ///< by catalogue index
    std::vector<std::string> coldText;  ///< normalized records
    std::uint64_t logAfterCold = 0;
    std::uint64_t logEnd = 0;
    std::uint64_t liveEnd = 0;
    double storeFileKb = 0;
    std::uint64_t warmStoreHits = 0;
    std::uint64_t coalesced = 0;
    std::string storeCopy;              ///< traced: copy of the log
};

std::uint64_t
statsField(const std::string &payload, const char *group, const char *key)
{
    auto v = obs::JsonValue::tryParse(payload);
    const obs::JsonValue *g = v ? v->find(group) : nullptr;
    const obs::JsonValue *f = g ? g->find(key) : nullptr;
    return f && f->isNumber() ? f->u64() : 0;
}

/**
 * One session on a fresh daemon and store. With @p setup_only it stops
 * after the set-up (start, connect, ping) and checks nothing.
 */
Session
runSession(const Options &opts, const Catalogue &cat, unsigned index,
           Spans *spans, Pins &pins, Report &rep, bool setup_only = false)
{
    Session ses;
    const std::string dir = opts.scratch + "/svc-" +
        std::to_string(::getpid()) + "-" + std::to_string(index);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);

    service::DaemonOptions dopts;
    dopts.socketPath = dir + "/sock";
    dopts.storeDir = dir + "/store";
    dopts.shards = kShards;
    dopts.shardThreads = 1;

    const std::size_t n = cat.points.size();
    ses.cold.resize(n);
    ses.coldText.resize(n);
    std::vector<std::uint64_t> warm_bad(kConnections, 0);
    std::vector<std::vector<std::pair<double, double>>> warm_at(
        kConnections);
    std::vector<std::pair<double, double>> batch_at;
    std::string err;
    const double t_setup_us = spans ? spans->nowUs() : 0;
    double t_cold_us = 0, t_warm_us = 0, t_end_us = 0;
    {
        const Clock::time_point t0 = Clock::now();
        // start() forks the shards: no thread of this process may be
        // running yet (earlier sessions joined theirs).
        service::Daemon daemon(dopts);
        if (!daemon.start(err)) {
            rep.fail("daemon start: " + err);
            return ses;
        }
        std::thread server([&daemon] { daemon.serve(); });
        ServiceClient clients[kConnections];
        bool up = true;
        for (ServiceClient &c : clients)
            up = up && c.connect(dopts.socketPath, err) && c.ping(err);
        ses.setupS = secondsSince(t0);
        up = up && !setup_only;

        if (up) {
            // Cold: batched sweeps over one connection.
            t_cold_us = spans ? spans->nowUs() : 0;
            const Clock::time_point tc = Clock::now();
            for (std::size_t b = 0; b < n && up; b += cat.batch) {
                std::vector<std::size_t> idx(
                    cat.coldOrder.begin() + b,
                    cat.coldOrder.begin() + std::min(n, b + cat.batch));
                std::vector<ServiceClient::Point> pts;
                for (std::size_t i : idx)
                    pts.push_back(cat.points[i]);
                std::vector<SimResult> out;
                ServiceClient::SweepSummary sum;
                const double a = spans ? spans->nowUs() : 0;
                up = clients[0].sweep(pts, out, sum, err);
                if (spans)
                    batch_at.emplace_back(a, spans->nowUs());
                if (!up)
                    break;
                if (sum.computed != idx.size()) {
                    rep.problem("cold batch served from a cache");
                    rep.failed(idx.size());
                }
                for (std::size_t j = 0; j < idx.size(); ++j)
                    ses.cold[idx[j]] = std::move(out[j]);
            }
            ses.coldS = secondsSince(tc);
            ses.logAfterCold = daemon.store()->stats().logBytes;
            for (std::size_t i = 0; i < n; ++i)
                ses.coldText[i] = service::normalizedRecordText(ses.cold[i]);
        }

        if (up) {
            // Warm: closed loop, one thread per connection.
            t_warm_us = spans ? spans->nowUs() : 0;
            const Clock::time_point tw = Clock::now();
            std::vector<std::vector<double>> lat(kConnections);
            std::vector<std::string> errs(kConnections);
            std::vector<std::thread> loops;
            for (unsigned c = 0; c < kConnections; ++c) {
                loops.emplace_back([&, c] {
                    for (std::size_t i : cat.warm[c]) {
                        std::vector<SimResult> out;
                        ServiceClient::SweepSummary sum;
                        const Clock::time_point a = Clock::now();
                        if (!clients[c].sweep({cat.points[i]}, out, sum,
                                              errs[c]))
                            return;
                        const Clock::time_point b = Clock::now();
                        lat[c].push_back(secondsBetween(a, b) * 1e6);
                        if (spans)
                            warm_at[c].emplace_back(spans->us(a),
                                                    spans->us(b));
                        // Checked between requests, outside the timed
                        // round trip: a hit, byte-identical to the cold
                        // reply for the same key.
                        if (sum.storeHits != 1 ||
                            service::normalizedRecordText(out[0]) !=
                                ses.coldText[i])
                            ++warm_bad[c];
                    }
                });
            }
            for (std::thread &t : loops)
                t.join();
            ses.warmS = secondsSince(tw);
            t_end_us = spans ? spans->nowUs() : 0;
            for (unsigned c = 0; c < kConnections; ++c) {
                ses.hitUs.insert(ses.hitUs.end(), lat[c].begin(),
                                 lat[c].end());
                if (lat[c].size() != cat.warm[c].size()) {
                    up = false;
                    err = errs[c];
                }
            }
        }

        std::string payload;
        if (up && clients[0].serverStats(payload, err)) {
            ses.warmStoreHits = statsField(payload, "service", "storeHits");
            ses.coalesced = statsField(payload, "service", "coalesced");
        }
        const service::StoreStats st = daemon.store()->stats();
        ses.logEnd = st.logBytes;
        ses.liveEnd = st.liveBytes;

        for (ServiceClient &c : clients)
            c.close();
        daemon.requestShutdown();
        server.join();
        if (!up && !setup_only) {
            rep.fail("service session: " + err);
            return ses;
        }
    }
    if (setup_only) {
        fs::remove_all(dir, ec);
        ses.ok = err.empty();
        if (!ses.ok)
            rep.fail("service set-up: " + err);
        return ses;
    }
    // The daemon is gone (shards reaped, flock released).
    const std::string log = dopts.storeDir + "/results.tcfstore";
    ses.storeFileKb = static_cast<double>(fs::file_size(log, ec)) / 1024.0;
    if (spans) {
        ses.storeCopy = dir + "-replay";
        fs::remove_all(ses.storeCopy, ec);
        fs::create_directories(ses.storeCopy, ec);
        fs::copy_file(log, ses.storeCopy + "/results.tcfstore", ec);
    }
    fs::remove_all(dir, ec);

    // Correctness: pins and the retired invariant on the cold records;
    // the warm replies were checked in the loop.
    rep.attempted(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SimResult &r = ses.cold[i];
        ses.coldInsts += r.retired;
        bool ok = pins.check(cat.names[i], r);
        if (!ok)
            rep.problem("digest mismatch for " + cat.names[i] + " (" +
                        Pins::digest(r) + ")");
        const std::size_t base = i - cat.spec[i];
        if (r.retired != ses.cold[base].retired) {
            ok = false;
            rep.problem("retired count of " + cat.names[i] +
                        " differs from opts=none");
        }
        if (!ok)
            rep.failed(1);
    }
    for (unsigned c = 0; c < kConnections; ++c) {
        rep.attempted(cat.warm[c].size());
        if (warm_bad[c] != 0) {
            rep.problem(std::to_string(warm_bad[c]) +
                        " warm replies missed the store or differ from "
                        "the cold reply");
            rep.failed(warm_bad[c]);
        }
    }

    if (!spans) {
        // Only traced sessions are replayed. Dropping the records keeps
        // the process (and the shards forked from it) the same size
        // however many sessions a run fits in.
        ses.cold = {};
        ses.coldText = {};
    } else {
        const std::uint64_t root = spans->add(
            "service.session", t_setup_us, t_end_us, 0, 0);
        spans->add("service.setup", t_setup_us,
                   t_setup_us + ses.setupS * 1e6, root, 0);
        const std::uint64_t cold = spans->add(
            "service.cold", t_cold_us, t_cold_us + ses.coldS * 1e6, root, 0);
        for (std::size_t b = 0; b < batch_at.size(); ++b) {
            spans->add("service.sweep", batch_at[b].first,
                       batch_at[b].second, cold, 0);
        }
        const std::uint64_t w =
            spans->add("service.warm", t_warm_us, t_end_us, root, 0);
        std::uint64_t op = 0;
        for (unsigned c = 0; c < kConnections; ++c) {
            for (const auto &[a, b] : warm_at[c])
                spans->add("service.request", a, b, w, ++op, int(c) + 1);
        }
    }
    ses.ok = true;
    return ses;
}

/** Codec, store get/put and load costs replayed from one session. */
struct Replay
{
    std::vector<double> encodeUs;       ///< per request, 4 frames
    std::vector<double> decodeUs;
    std::vector<double> getUs;
    double loadMs = 0;
    double putUs = 0;
};

// The payloads of one warm request, built as the service builds them:
// requestPayload as ServiceClient::sweep (client.cc) and replyPayloads
// as Daemon::handleSweep (daemon.cc). Keep them in step with those.

std::string
requestPayload(std::uint64_t id, const ServiceClient::Point &p)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.field("type", "sweep");
    w.field("id", id);
    w.beginArray("points");
    w.beginObject();
    w.field("workload", p.workload);
    w.field("scale", p.scale);
    w.key("config");
    configToJson(w, p.config);
    w.endObject();
    w.endArray();
    w.endObject();
    return os.str();
}

/** The result, progress and done frames of a one-point store hit. */
std::vector<std::string>
replyPayloads(std::uint64_t id, const std::string &record)
{
    std::vector<std::string> out;
    {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("type", "result");
        w.field("id", id);
        w.field("index", std::uint64_t(0));
        w.field("cacheHit", "store");
        w.field("record", record);
        w.endObject();
        out.push_back(os.str());
    }
    {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("type", "progress");
        w.field("id", id);
        w.field("done", std::uint64_t(1));
        w.field("points", std::uint64_t(1));
        w.field("storeHits", std::uint64_t(1));
        w.field("memoryHits", std::uint64_t(0));
        w.field("computed", std::uint64_t(0));
        w.endObject();
        out.push_back(os.str());
    }
    {
        std::ostringstream os;
        obs::JsonWriter w(os);
        w.beginObject();
        w.field("type", "done");
        w.field("id", id);
        w.field("points", std::uint64_t(1));
        w.field("storeHits", std::uint64_t(1));
        w.field("memoryHits", std::uint64_t(0));
        w.field("computed", std::uint64_t(0));
        w.endObject();
        out.push_back(os.str());
    }
    return out;
}

Replay
replaySession(const Catalogue &cat, const Session &ses, Spans &spans,
              Report &rep)
{
    Replay rp;
    const std::uint64_t root =
        spans.add("service.replay", spans.nowUs(), spans.nowUs(), 0, 0);
    std::string err;
    std::uint64_t op = 0;
    {
        service::ResultStore store(ses.storeCopy);
        const Clock::time_point t = Clock::now();
        if (!store.load(err)) {
            rep.fail("replay store load: " + err);
            return rp;
        }
        rp.loadMs = secondsSince(t) * 1e3;
        for (unsigned c = 0; c < kConnections; ++c) {
            for (std::size_t i : cat.warm[c]) {
                ++op;
                std::string value;
                const double g0 = spans.nowUs();
                const bool hit = store.get(cat.keys[i], value);
                const double g1 = spans.nowUs();
                if (!hit || value != ses.coldText[i])
                    rep.fail("replayed store get of " + cat.names[i]);
                spans.add("service.store_get", g0, g1, root, op);
                rp.getUs.push_back(g1 - g0);

                std::vector<std::string> payloads = replyPayloads(op, value);
                payloads.insert(payloads.begin(),
                                requestPayload(op, cat.points[i]));

                std::vector<std::string> frames;
                const double e0 = spans.nowUs();
                for (const std::string &p : payloads)
                    frames.push_back(service::encodeFrame(p));
                const double e1 = spans.nowUs();
                std::string back;
                std::size_t used = 0;
                bool intact = true;
                for (const std::string &f : frames) {
                    intact = intact &&
                        service::decodeFrame(f, back, used) ==
                            service::FrameStatus::Ok &&
                        used == f.size();
                }
                const double e2 = spans.nowUs();
                if (!intact)
                    rep.fail("frame codec round trip failed");
                spans.add("service.frame_encode", e0, e1, root, op);
                spans.add("service.frame_decode", e1, e2, root, op);
                rp.encodeUs.push_back(e1 - e0);
                rp.decodeUs.push_back(e2 - e1);
            }
        }
    }
    std::error_code ec;
    const std::string put_dir = ses.storeCopy + "-put";
    {
        service::ResultStore store(put_dir);
        if (store.load(err)) {
            const Clock::time_point t = Clock::now();
            for (std::size_t i = 0; i < cat.points.size(); ++i)
                store.put(cat.keys[i], ses.coldText[i]);
            rp.putUs = secondsSince(t) * 1e6 /
                static_cast<double>(cat.points.size());
        } else {
            rep.fail("replay put store: " + err);
        }
    }
    fs::remove_all(put_dir, ec);
    fs::remove_all(ses.storeCopy, ec);
    spans.setEnd(root, spans.nowUs());
    return rp;
}

} // namespace

void
runService(const Options &opts, Pins &pins, Report &rep)
{
    const Catalogue cat = makeCatalogue(opts);
    std::error_code ec;
    fs::create_directories(opts.scratch, ec);

    std::vector<Session> plain, traced;
    std::vector<Replay> replays;
    Spans spans;
    unsigned index = 0;
    // Set-ups run between the sessions, so that setup_s samples the
    // host over the whole run as the sessions do.
    std::vector<double> setups;
    auto setUps = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            setups.push_back(
                runSession(opts, cat, index++, nullptr, pins, rep, true)
                    .setupS);
        }
    };
    // The footprint of process and shards creeps up with every session
    // served, so the peak is taken after a fixed number of sessions —
    // not after however many a run fits in.
    double rss_self = 0, rss_child = 0;
    std::size_t rss_setups = 0;
    const Clock::time_point t0 = Clock::now();
    while (plain.size() < 3 || secondsSince(t0) < opts.seconds) {
        setUps(kSetupBlock / 2);
        plain.push_back(runSession(opts, cat, index++, nullptr, pins, rep));
        if (!plain.back().ok)
            break;
        if (plain.size() == 3) {
            rss_self = peakRssMb();
            rss_child = childPeakRssMb();
            rss_setups = setups.size();
        }
        if (opts.trace) {
            traced.push_back(
                runSession(opts, cat, index++, &spans, pins, rep));
            if (!traced.back().ok)
                break;
            replays.push_back(replaySession(cat, traced.back(), spans, rep));
        }
    }
    // A broken session already counted its failure; report nothing.
    if (!plain.back().ok || (opts.trace && !traced.back().ok))
        return;
    const std::size_t min_setups = kSetupBlocks * kSetupBlock;
    setUps(min_setups - std::min(min_setups, setups.size()));

    std::vector<double> hits;
    for (const Session &s : plain)
        hits.insert(hits.end(), s.hitUs.begin(), s.hitUs.end());
    double used = 0;
    const double p99 = tailPercentile(hits, 99, used);
    const double p50 = median(hits);

    if (!opts.trace) {
        for (const Session &s : plain)
            setups.push_back(s.setupS);
        rep.metric("setup_s", median(setups), "s");
        rep.metric("sim_mips", median(collect(plain, [](const Session &s) {
                       return static_cast<double>(s.coldInsts) / s.coldS *
                           1e-6;
                   })),
                   "Minst/s");
        rep.metric("op_p50_us", p50, "us");
        rep.metric("peak_rss_mb", std::max(rss_self, rss_child), "MiB");
        char line[256];
        std::snprintf(line, sizeof(line),
                      "service: %zu sessions; cold %zu points in batches "
                      "of %zu; warm %u connections x %zu Zipf(1.0) "
                      "requests",
                      plain.size(), cat.points.size(), cat.batch,
                      kConnections, cat.warmPerConn);
        rep.note(line);
        std::snprintf(line, sizeof(line),
                      "peak_rss_mb after %zu set-ups and 3 sessions: this "
                      "process %.3f MiB, largest shard child %.3f MiB",
                      rss_setups, rss_self, rss_child);
        rep.note(line);
        std::snprintf(line, sizeof(line), "hit_p50_us %.3f us", p50);
        rep.note(line);
        std::snprintf(line, sizeof(line),
                      "hit_p99_us %.3f us (p%.2f of %zu requests)", p99,
                      used, hits.size());
        rep.note(line);
        std::snprintf(line, sizeof(line), "store_log_kb %.3f KiB",
                      median(collect(plain, [](const Session &s) {
                          return s.storeFileKb;
                      })));
        rep.note(line);
        return;
    }

    LayerMetrics lm;
    auto sessionS = [](const Session &s) { return s.coldS + s.warmS; };
    lm.set("trace_overhead_pct", (median(collect(traced, sessionS)) /
                                      median(collect(plain, sessionS)) -
                                  1.0) *
                                     100.0);
    rep.note("trace.spans " + std::to_string(spans.size()) +
             " spans recorded");

    std::vector<double> enc, dec, get, load, put;
    for (const Replay &r : replays) {
        enc.insert(enc.end(), r.encodeUs.begin(), r.encodeUs.end());
        dec.insert(dec.end(), r.decodeUs.begin(), r.decodeUs.end());
        get.insert(get.end(), r.getUs.begin(), r.getUs.end());
        load.push_back(r.loadMs);
        put.push_back(r.putUs);
    }
    double get_used = 0;
    const double get_p50 = median(get);
    lm.set("service.frame_encode_us", median(enc));
    lm.set("service.frame_decode_us", median(dec));
    lm.set("service.store_get_us_p50", get_p50);
    lm.set("service.store_get_us_p99", tailPercentile(get, 99, get_used));
    lm.set("service.store_load_ms", median(load));
    lm.set("service.store_put_us", median(put));
    lm.set("service.rtt_other_us",
           p50 - median(enc) - median(dec) - get_p50);

    const Session &last = traced.back();
    const double warm_requests =
        static_cast<double>(kConnections * cat.warmPerConn);
    lm.set("service.log_bytes_per_hit",
           static_cast<double>(last.logEnd - last.logAfterCold) /
               static_cast<double>(std::max<std::uint64_t>(
                   last.warmStoreHits, 1)));
    lm.set("service.dead_byte_ratio",
           1.0 - static_cast<double>(last.liveEnd) /
                   static_cast<double>(last.logEnd));
    lm.set("service.hit_ratio",
           static_cast<double>(last.warmStoreHits) / warm_requests);
    lm.set("service.coalesced", static_cast<double>(last.coalesced));
    setModelMetrics(last.cold, lm);
    lm.emit(rep);

    if (!opts.traceOut.empty() &&
        !spans.write(opts.traceOut, "tcbench service (host wall clock)"))
        rep.fail("cannot write " + opts.traceOut);
}

} // namespace tcbench
