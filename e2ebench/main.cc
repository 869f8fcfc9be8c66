/**
 * @file
 * e2ebench: run one workload of the end-to-end benchmark and print its
 * metrics. Normally started through run.py, which builds this binary and
 * phase_serve from the surrounding checkout first:
 *
 *   e2ebench --workload <pipeline_cold|analysis_sweep|serve_bulk|
 *                        serve_interactive>
 *            --seed N --seconds S --trace 0|1
 *            --state DIR --serve-bin PATH [--trace-out FILE]
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics. An untraced run reports the
 * end-to-end metrics, a traced run the per-layer metrics (see README.md).
 */

#include <signal.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <thread>

#include "bench.hh"
#include "stats/simd.hh"

namespace {

using namespace e2e;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Reported by every untraced run. Must match BENCHMARK.json. */
constexpr MetricSpec kEndToEnd[] = {
    {"job_s", "s"},
    {"throughput_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/**
 * Reported by every traced run; a layer a workload does not exercise
 * reads 0. Must match BENCHMARK.json.
 */
constexpr MetricSpec kPerLayer[] = {
    {"workloads.build_s", "s"},
    {"analysis.verify_s", "s"},
    {"analysis.verify_max_ms", "ms"},
    {"analysis.instrs_verified", "count"},
    {"vm.run_s", "s"},
    {"vm.ns_per_instr", "ns"},
    {"mica.profile_s", "s"},
    {"mica.ns_per_instr", "ns"},
    {"core.characterize_s", "s"},
    {"core.characterize_straggler_s", "s"},
    {"core.characterize_busy_ratio", "ratio"},
    {"core.instrs_simulated", "count"},
    {"core.cache_load_s", "s"},
    {"core.sample_s", "s"},
    {"core.compare_s", "s"},
    {"stats.pca_s", "s"},
    {"stats.kmeans_s", "s"},
    {"stats.kmeans_iterations", "count"},
    {"stats.kmeans_pruned_ratio", "ratio"},
    {"ga.select_s", "s"},
    {"ga.generations", "count"},
    {"model.export_s", "s"},
    {"model.open_s", "s"},
    {"model.place_rows_per_s", "rows/s"},
    {"model.assess_ms", "ms"},
    {"model.live_load_ms", "ms"},
    {"serve.frontend_share", "ratio"},
    {"serve.write_blocked_s", "s"},
    {"serve.reply_wait_s", "s"},
    {"serve.bytes_in", "bytes"},
    {"serve.bytes_out", "bytes"},
    {"serve.gen_late_p99_ms", "ms"},
    {"serve.reply_p99_ms", "ms"},
    {"serve.max_rate_rows_s", "rows/s"},
    {"obs.trace_overhead", "ratio"},
    {"traced_wall_s", "s"},
    {"unattributed_s", "s"},
    {"bench.self_s", "s"},
    {"core.self_s", "s"},
    {"workloads.self_s", "s"},
    {"analysis.self_s", "s"},
    {"vm.self_s", "s"},
    {"mica.self_s", "s"},
    {"stats.self_s", "s"},
    {"ga.self_s", "s"},
    {"model.self_s", "s"},
    {"serve.self_s", "s"},
    {"obs.self_s", "s"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: e2ebench --workload W --seed N --seconds S "
                 "--trace 0|1 --state DIR --serve-bin PATH "
                 "[--trace-out FILE]\n");
    return 64;
}

bool
parseArgs(int argc, char **argv, RunOptions &opts)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload")
            opts.workload = val;
        else if (key == "--seed")
            opts.seed = std::strtoull(val.c_str(), &end, 10);
        else if (key == "--seconds")
            opts.seconds = std::strtod(val.c_str(), &end);
        else if (key == "--trace")
            opts.trace = val == "1";
        else if (key == "--state")
            opts.state_dir = val;
        else if (key == "--serve-bin")
            opts.serve_bin = val;
        else if (key == "--trace-out")
            opts.trace_out = val;
        else
            return false;
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !opts.workload.empty() &&
           !opts.state_dir.empty() && opts.seconds > 0;
}

/** Host and build facts recorded with every result. */
void
printHost()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    const std::string build = E2EBENCH_BUILD_TYPE;
    const bool optimized = build == "Release" || build == "RelWithDebInfo" ||
                           build == "MinSizeRel";
    const std::string simd(mica::stats::simd::levelName(
        mica::stats::simd::activeLevel()));
    std::printf("# host {\"hardware_threads\":%u,\"online_cpus\":%ld,"
                "\"simd\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"single_hardware_thread\":%s,\"unoptimized_build\":%s}\n",
                hw, online, simd.c_str(), E2EBENCH_COMPILER, build.c_str(),
                hw <= 1 ? "true" : "false", optimized ? "false" : "true");
    if (hw <= 1)
        std::fprintf(stderr, "e2ebench: WARNING: single hardware thread; "
                             "parallel stages cannot scale here\n");
    if (!optimized)
        std::fprintf(stderr, "e2ebench: WARNING: unoptimized build (%s); "
                             "timings do not represent a user's build\n",
                     build.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    if (!parseArgs(argc, argv, opts))
        return usage();
    signal(SIGPIPE, SIG_IGN);
    std::filesystem::create_directories(opts.state_dir);
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    printHost();

    SpanRecorder rec(opts.workload + "-seed" + std::to_string(opts.seed));
    rec.enable(opts.trace);
    Result result;
    try {
        if (opts.workload == "pipeline_cold")
            result = runPipelineCold(opts, rec);
        else if (opts.workload == "analysis_sweep")
            result = runAnalysisSweep(opts, rec);
        else if (opts.workload == "serve_bulk")
            result = runServeBulk(opts, rec);
        else if (opts.workload == "serve_interactive")
            result = runServeInteractive(opts, rec);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s: %s\n", opts.workload.c_str(),
                     e.what());
        return 1;
    }

    if (opts.trace) {
        for (const auto &[layer, self] : rec.selfTimeByLayer())
            result.metrics[layer + ".self_s"] = self;
        if (!opts.trace_out.empty()) {
            if (rec.writeChromeTrace(opts.trace_out))
                std::printf("# trace %s\n", opts.trace_out.c_str());
            else
                result.fail("cannot write " + opts.trace_out);
        }
    }

    // Exactly the declared metrics, each finite; end-to-end ones nonzero.
    std::string json = "{";
    bool first = true;
    const std::span<const MetricSpec> specs =
        opts.trace ? std::span<const MetricSpec>(kPerLayer)
                   : std::span<const MetricSpec>(kEndToEnd);
    for (const MetricSpec &spec : specs) {
        auto it = result.metrics.find(spec.name);
        double v = it == result.metrics.end() ? 0.0 : it->second;
        if (it != result.metrics.end())
            result.metrics.erase(it);
        if (!std::isfinite(v) || (!opts.trace && v <= 0.0)) {
            result.fail(std::string("metric ") + spec.name +
                        " was not measured");
            v = 0.0;
        }
        std::printf("%-32s %.6g %s\n", spec.name, v, spec.unit);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", spec.name, v, spec.unit);
        json += buf;
        first = false;
    }
    json += "}";
    // End-to-end figures a traced run also measured (e.g. setup) are not
    // reported; any other name left over is a bench bug.
    for (const MetricSpec &spec : kEndToEnd)
        result.metrics.erase(spec.name);
    for (const auto &[name, value] : result.metrics)
        std::fprintf(stderr, "e2ebench: internal: undeclared metric %s\n",
                     name.c_str());
    if (!result.metrics.empty())
        return 70;
    for (const auto &[name, text] : result.notes)
        std::printf("# %s: %s\n", name.c_str(), text.c_str());
    for (const std::string &p : result.problems)
        std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", p.c_str());

    // A failed check outside any counted operation still counts once.
    if (!result.checks_ok && result.failed == 0)
        result.failed = 1;
    const bool correct = result.checks_ok && result.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    result.attempted > 0 ? result.attempted : 1),
                static_cast<unsigned long long>(result.failed), json.c_str());
    return 0;
}
