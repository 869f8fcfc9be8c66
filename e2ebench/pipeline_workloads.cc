/**
 * @file
 * The pipeline workloads: pipeline_cold (a cold runFullExperiment at the
 * default operating point) and analysis_sweep (the re-analysis loop over
 * a cached characterization), plus the bench-owned characterization
 * cache both the sweep and the serve workloads start from.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "core/model_export.hh"
#include "core/pipeline.hh"
#include "util/thread_pool.hh"
#include "vm/cpu.hh"

namespace e2e {

using namespace mica;

namespace {

/**
 * Digest of the default characterization. It depends on the catalog,
 * the VM and the MICA metrics, never on the seed; a change that alters
 * any characteristic value must update it deliberately.
 */
constexpr std::uint64_t kCharacterizationDigest = 0x54be128cad5f640fULL;

/** The k values of ablation_k_tradeoff, swept by analysis_sweep. */
constexpr std::size_t kSweepK[] = {100, 200, 300, 400};

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool
sameBits(const stats::Matrix &a, const stats::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.data().empty() ||
            std::memcmp(a.data().data(), b.data().data(),
                        a.data().size() * sizeof(double)) == 0);
}

bool
samePca(const stats::Pca &a, const stats::Pca &b)
{
    return a.numComponents() == b.numComponents() &&
           sameBits(a.eigenvalues(), b.eigenvalues()) &&
           sameBits(a.loadings(), b.loadings()) &&
           sameBits(a.scoreStdDevs(), b.scoreStdDevs()) &&
           sameBits(a.inputStats().mean, b.inputStats().mean) &&
           sameBits(a.inputStats().stddev, b.inputStats().stddev);
}

bool
sameClustering(const stats::KMeansResult &a, const stats::KMeansResult &b)
{
    return a.assignment == b.assignment && a.sizes == b.sizes &&
           sameBits(a.centers, b.centers) &&
           std::memcmp(&a.inertia, &b.inertia, sizeof(double)) == 0;
}

/** analyzePhases' PCA options for `config` (the pipeline's settings). */
stats::Pca::Options
pcaOptions(const core::ExperimentConfig &config)
{
    stats::Pca::Options o;
    o.min_stddev = config.pca_min_stddev;
    o.normalize_input = true;
    o.threads = config.threads;
    return o;
}

/** analyzePhases' k-means options for `config`. */
stats::KMeans::Options
kmeansOptions(const core::ExperimentConfig &config)
{
    stats::KMeans::Options o;
    o.k = config.kmeans_k;
    o.restarts = config.kmeans_restarts;
    o.seed = config.seed ^ 0xC1u;
    o.init = stats::KMeans::Init::Random;
    o.threads = config.threads;
    o.pruning = config.kmeans_pruning;
    return o;
}

std::uint64_t
analysisDigest(const core::PhaseAnalysis &a)
{
    std::uint64_t h = fnv1a(a.clustering.assignment.data(),
                            a.clustering.assignment.size() *
                                sizeof(std::size_t));
    return fnv1a(a.reduced.data().data(),
                 a.reduced.data().size() * sizeof(double), h);
}

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    return bytes.empty() ? 0 : fnv1a(bytes.data(), bytes.size());
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

core::CharacterizationResult
catalogSkeleton(const workloads::SuiteCatalog &catalog)
{
    core::CharacterizationResult r;
    for (const auto &b : catalog.benchmarks()) {
        r.benchmark_ids.push_back(b.id());
        r.benchmark_names.push_back(b.name);
        r.benchmark_suites.push_back(b.suite);
    }
    return r;
}

/** Stage → the layer whose work the stage span mostly holds. */
const char *
stageLayer(core::Stage s)
{
    switch (s) {
      case core::Stage::Pca:
      case core::Stage::KMeans: return "stats";
      case core::Stage::FeatureSelect: return "ga";
      case core::Stage::ModelExport: return "model";
      default: return "core";
    }
}

/**
 * Records the pipeline's stage Begin/End events as spans, and rebuilds
 * per-benchmark characterization spans from Progress events: the
 * catalog's work queue hands a worker its next benchmark as soon as the
 * previous one finishes, so a benchmark started at its worker's previous
 * finish (or at the stage's start).
 */
class StageRecorder final : public core::PipelineObserver
{
  public:
    explicit StageRecorder(SpanRecorder &rec) : rec_(rec) {}

    /** The span that stage spans hang under (set once it is open). */
    void setParent(int parent) { parent_ = parent; }

    void
    onStage(const core::StageEvent &ev) override
    {
        const Clock::time_point now = Clock::now();
        const auto s = static_cast<std::size_t>(ev.stage);
        switch (ev.kind) {
          case core::StageEvent::Kind::Begin:
            begin_[s] = now;
            span_[s] = rec_.begin("pipeline." +
                                      std::string(core::stageName(ev.stage)),
                                  stageLayer(ev.stage), parent_);
            break;
          case core::StageEvent::Kind::Progress: {
            if (ev.stage != core::Stage::Characterize)
                break;
            const auto tid = std::this_thread::get_id();
            auto it = last_finish_.find(tid);
            const Clock::time_point start =
                it == last_finish_.end() ? begin_[s] : it->second;
            last_finish_[tid] = now;
            if (lanes_.count(tid) == 0)
                lanes_[tid] = static_cast<unsigned>(lanes_.size()) + 1;
            benchmark_seconds.push_back(secondsBetween(start, now));
            rec_.add("characterize " + std::string(ev.item), "core",
                     span_[s], start, now, lanes_[tid]);
            break;
          }
          case core::StageEvent::Kind::End:
            rec_.end(span_[s]);
            stage_seconds[s] += secondsBetween(begin_[s], now);
            break;
        }
    }

    double stage_seconds[core::kNumStages] = {};
    std::vector<double> benchmark_seconds;

  private:
    SpanRecorder &rec_;
    int parent_ = -1;
    Clock::time_point begin_[core::kNumStages] = {};
    int span_[core::kNumStages] = {-1, -1, -1, -1, -1, -1, -1, -1};
    std::map<std::thread::id, Clock::time_point> last_finish_;
    std::map<std::thread::id, unsigned> lanes_;
};

/** Default-scale invariants and the recorded digest. */
void
checkCharacterization(const core::CharacterizationResult &chars,
                      Result &result, std::string_view where)
{
    const std::string w(where);
    if (chars.benchmark_ids.size() != kBenchmarks)
        result.fail(w + ": " + std::to_string(chars.benchmark_ids.size()) +
                    " benchmarks, expected 77");
    if (chars.intervals.size() != kIntervals)
        result.fail(w + ": " + std::to_string(chars.intervals.size()) +
                    " intervals, expected 7238");
    const std::uint64_t digest = characterizationDigest(chars);
    if (digest != kCharacterizationDigest)
        result.fail(w + ": characterization digest " + hex(digest) +
                    ", expected " + hex(kCharacterizationDigest));
}

/** Output checks of one finished pipeline run. */
void
checkPipeline(const core::ExperimentOutputs &out, Result &result)
{
    checkCharacterization(out.characterization, result, "pipeline");
    if (out.sampled.data.rows() != kSampledRows)
        result.fail("pipeline: sampled rows " +
                    std::to_string(out.sampled.data.rows()));
    if (out.analysis.clustering.centers.rows() != kDefaultK ||
        out.analysis.clusters.size() != kDefaultK ||
        out.analysis.clustering.assignment.size() != kSampledRows)
        result.fail("pipeline: clustering is not k=300 over all rows");
    if (out.comparison.suites.empty() ||
        out.comparison.coverage.size() != out.comparison.suites.size())
        result.fail("pipeline: empty suite comparison");
}

/** Per-program layer measurements of the traced pipeline_cold run. */
struct LayerTotals
{
    double build_s = 0.0, verify_s = 0.0, verify_max_s = 0.0;
    double characterize_s = 0.0, vm_s = 0.0;
    std::uint64_t instrs_verified = 0, instrs_simulated = 0;
};

/**
 * Build, verify, characterize and run (VM only, no trace sink) every
 * catalog program, in parallel over benchmarks like characterizeCatalog,
 * timing each public call. Returns the reassembled characterization in
 * catalog order so it can be checked against the pipeline's.
 */
core::CharacterizationResult
measureLayers(const workloads::SuiteCatalog &catalog,
              const core::ExperimentConfig &config, SpanRecorder &rec,
              int parent, LayerTotals &totals, Result &result)
{
    const auto &benchmarks = catalog.benchmarks();
    std::vector<std::vector<core::IntervalRecord>> per_bench(
        benchmarks.size());
    std::vector<LayerTotals> per(benchmarks.size());
    std::vector<std::string> errors(benchmarks.size());
    std::mutex lane_mutex;
    std::map<std::thread::id, unsigned> lanes;

    const unsigned threads =
        util::resolveThreads(config.threads, benchmarks.size());
    util::parallelFor(threads, benchmarks.size(), [&](std::size_t bi) {
        unsigned lane = 0;
        {
            const std::lock_guard<std::mutex> lock(lane_mutex);
            const auto tid = std::this_thread::get_id();
            if (lanes.count(tid) == 0)
                lanes[tid] = static_cast<unsigned>(lanes.size()) + 1;
            lane = lanes[tid];
        }
        const auto &bench = benchmarks[bi];
        LayerTotals &t = per[bi];
        for (std::uint32_t input = 0; input < bench.num_inputs; ++input) {
            const std::uint32_t intervals = std::max<std::uint32_t>(
                1, static_cast<std::uint32_t>(std::lround(
                       bench.intervalsForInput(input) *
                       config.interval_scale)));
            const std::uint64_t budget =
                config.interval_instructions * intervals;
            const std::string tag =
                bench.id() + "#" + std::to_string(input);

            const Clock::time_point t0 = Clock::now();
            const isa::Program program = bench.build(input);
            const Clock::time_point t1 = Clock::now();
            core::verifyProgram(program);
            const Clock::time_point t2 = Clock::now();
            const auto vectors = core::characterizeProgram(
                program, config.interval_instructions, intervals);
            const Clock::time_point t3 = Clock::now();
            vm::Cpu cpu(program);
            const vm::RunResult run = cpu.run(budget);
            const Clock::time_point t4 = Clock::now();

            rec.add("build " + tag, "workloads", parent, t0, t1, lane);
            rec.add("verify " + tag, "analysis", parent, t1, t2, lane);
            rec.add("characterizeProgram " + tag, "mica", parent, t2, t3,
                    lane);
            rec.add("Cpu::run " + tag, "vm", parent, t3, t4, lane);
            t.build_s += secondsBetween(t0, t1);
            t.verify_s += secondsBetween(t1, t2);
            t.verify_max_s =
                std::max(t.verify_max_s, secondsBetween(t1, t2));
            t.characterize_s += secondsBetween(t2, t3);
            t.vm_s += secondsBetween(t3, t4);
            t.instrs_verified += program.code.size();
            t.instrs_simulated += run.executed;
            if (run.executed != budget)
                errors[bi] = tag + ": VM stopped after " +
                             std::to_string(run.executed) + " of " +
                             std::to_string(budget) + " instructions";
            for (const auto &v : vectors) {
                core::IntervalRecord r;
                r.benchmark = static_cast<std::uint32_t>(bi);
                r.input = input;
                r.values = v;
                per_bench[bi].push_back(r);
            }
        }
    });

    core::CharacterizationResult chars = catalogSkeleton(catalog);
    for (std::size_t bi = 0; bi < benchmarks.size(); ++bi) {
        if (!errors[bi].empty())
            result.fail("layers: " + errors[bi]);
        const LayerTotals &t = per[bi];
        totals.build_s += t.build_s;
        totals.verify_s += t.verify_s;
        totals.verify_max_s = std::max(totals.verify_max_s, t.verify_max_s);
        totals.characterize_s += t.characterize_s;
        totals.vm_s += t.vm_s;
        totals.instrs_verified += t.instrs_verified;
        totals.instrs_simulated += t.instrs_simulated;
        for (const auto &r : per_bench[bi])
            chars.intervals.push_back(r);
    }
    return chars;
}

core::ExperimentConfig
defaultConfig(std::uint64_t seed)
{
    core::ExperimentConfig config;
    config.seed = seed;
    config.cache_dir.clear();
    config.threads = 0;
    return config;
}

/** The bench-owned cache of the default characterization. */
std::string
benchCachePath(const RunOptions &opts)
{
    std::ostringstream name;
    name << opts.state_dir << "/chars_" << std::hex
         << defaultConfig(opts.seed).characterizationKey() << ".csv";
    return name.str();
}

} // namespace

core::CharacterizationResult
loadBenchCharacterization(const RunOptions &opts, Result &result,
                          double &load_s, int reps)
{
    const core::ExperimentConfig config = defaultConfig(opts.seed);
    const std::string path = benchCachePath(opts);

    core::CharacterizationResult chars;
    std::vector<double> loads;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const workloads::SuiteCatalog catalog;
        chars = catalogSkeleton(catalog);
        const bool hit = core::loadCharacterization(path, chars);
        const double dt = secondsSince(t0);
        if (!hit) {
            // First use in this checkout: fill the cache once. This is
            // preparation, like the build, and is not part of set-up.
            std::fprintf(stderr, "e2ebench: characterizing the catalog "
                                 "once into %s\n", path.c_str());
            const Clock::time_point c0 = Clock::now();
            chars = core::characterizeCatalog(catalog, config);
            core::saveCharacterization(path, chars);
            std::fprintf(stderr, "e2ebench: characterized in %.1f s\n",
                         secondsSince(c0));
            --rep;
            continue;
        }
        loads.push_back(dt);
    }
    load_s = median(loads);
    checkCharacterization(chars, result, "cache");
    return chars;
}

Result
runPipelineCold(const RunOptions &opts, SpanRecorder &rec)
{
    Result result;
    const core::ExperimentConfig config = defaultConfig(opts.seed);

    // Set-up: what the process does before the pipeline's first call —
    // build the workload registry and start the shared worker pool.
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const workloads::SuiteCatalog catalog;
        util::parallelFor(util::resolveThreads(0, 1024), 1024,
                          [](std::size_t) {});
        setups.push_back(secondsSince(t0));
        if (catalog.benchmarks().size() != kBenchmarks)
            result.fail("setup: catalog size");
    }

    if (!rec.enabled()) {
        std::vector<double> walls;
        std::uint64_t first_digest = 0;
        double first_run_rss = 0.0;
        const Clock::time_point start = Clock::now();
        do {
            const Clock::time_point t0 = Clock::now();
            const core::ExperimentOutputs out =
                core::runFullExperiment(config);
            walls.push_back(secondsSince(t0));
            if (walls.size() == 1)
                first_run_rss = selfPeakRssMb();
            ++result.attempted;
            Result run;
            checkPipeline(out, run);
            const std::uint64_t d = analysisDigest(out.analysis);
            if (walls.size() == 1)
                first_digest = d;
            else if (d != first_digest)
                run.fail("pipeline: repeated run differs bitwise");
            if (!run.checks_ok) {
                ++result.failed;
                for (const auto &p : run.problems)
                    result.fail(p);
            }
        } while (secondsSince(start) < opts.seconds);

        const double job = median(walls);
        result.metrics["job_s"] = job;
        result.metrics["throughput_per_s"] =
            static_cast<double>(kIntervals) / job;
        result.metrics["setup_s"] = median(setups);
        result.metrics["peak_rss_mb"] = first_run_rss;
        result.note("pipeline_s", std::to_string(job) + " s (" +
                                      std::to_string(walls.size()) +
                                      " runs)");
        return result;
    }

    // Traced run: time every layer from outside, then check that the
    // stand-alone stats calls reproduce the pipeline bitwise.
    const int root = rec.begin("pipeline_cold", "bench", -1);
    const Clock::time_point traced_start = Clock::now();

    Result run; // output checks of the traced run
    StageRecorder stages(rec);
    core::ExperimentOutputs out;
    double observed_wall = 0.0;
    {
        const ScopedSpan span(rec, "core.runFullExperiment", "core", root);
        stages.setParent(span.id());
        const Clock::time_point t0 = Clock::now();
        out = core::runFullExperiment(config, &stages);
        observed_wall = secondsSince(t0);
    }
    ++result.attempted;

    double obs_wall = 0.0;
    {
        const ScopedSpan span(rec, "obs.runFullExperiment(trace_path)",
                              "obs", root);
        core::ExperimentConfig traced = config;
        traced.trace_path = opts.state_dir + "/obs_pipeline_trace.json";
        const Clock::time_point t0 = Clock::now();
        const core::ExperimentOutputs again =
            core::runFullExperiment(traced);
        obs_wall = secondsSince(t0);
        ++result.attempted;
        if (analysisDigest(again.analysis) != analysisDigest(out.analysis))
            run.fail("obs: traced pipeline differs from untraced");
    }

    LayerTotals layers;
    core::CharacterizationResult per_program;
    {
        const ScopedSpan span(rec, "bench.layer_pass", "bench", root);
        const workloads::SuiteCatalog catalog;
        per_program =
            measureLayers(catalog, config, rec, span.id(), layers, run);
    }

    core::SampledDataset sampled;
    double sample_s = 0.0, pca_s = 0.0, kmeans_s = 0.0, compare_s = 0.0;
    stats::Pca pca;
    stats::KMeansResult clustering;
    {
        const ScopedSpan span(rec, "core.sampleIntervals", "core", root);
        const Clock::time_point t0 = Clock::now();
        sampled = core::sampleIntervals(out.characterization,
                                        config.samples_per_benchmark,
                                        config.seed ^ 0x5A);
        sample_s = secondsSince(t0);
    }
    {
        const ScopedSpan span(rec, "stats.Pca::fit", "stats", root);
        const Clock::time_point t0 = Clock::now();
        pca = stats::Pca::fit(sampled.data, pcaOptions(config));
        pca_s = secondsSince(t0);
    }
    {
        const ScopedSpan span(rec, "stats.KMeans::run", "stats", root);
        const Clock::time_point t0 = Clock::now();
        clustering =
            stats::KMeans::run(out.analysis.reduced, kmeansOptions(config));
        kmeans_s = secondsSince(t0);
    }
    {
        const ScopedSpan span(rec, "core.compareSuites", "core", root);
        const Clock::time_point t0 = Clock::now();
        const core::SuiteComparison cmp =
            core::compareSuites(out.characterization, sampled, out.analysis);
        compare_s = secondsSince(t0);
        if (cmp.uniqueness != out.comparison.uniqueness)
            run.fail("compareSuites differs from the pipeline's");
    }
    {
        const ScopedSpan span(rec, "bench.checks", "bench", root);
        checkPipeline(out, run);
        checkCharacterization(per_program, run, "layer pass");
        if (!sameBits(sampled.data, out.sampled.data))
            run.fail("sampleIntervals differs from the pipeline's");
        if (!samePca(pca, out.analysis.pca))
            run.fail("Pca::fit differs bitwise from the pipeline's");
        if (!sameClustering(clustering, out.analysis.clustering))
            run.fail("KMeans::run differs bitwise from the pipeline's");
        if (!run.checks_ok)
            ++result.failed;
        for (const auto &p : run.problems)
            result.fail(p);
    }
    rec.end(root);

    const auto &st = stages.stage_seconds;
    const double characterize_s =
        st[static_cast<std::size_t>(core::Stage::Characterize)];
    const unsigned threads = util::resolveThreads(0, kBenchmarks);
    double busy = 0.0;
    for (double b : stages.benchmark_seconds)
        busy += b;
    const double instrs = static_cast<double>(layers.instrs_simulated);
    auto &m = result.metrics;
    m["workloads.build_s"] = layers.build_s;
    m["analysis.verify_s"] = layers.verify_s;
    m["analysis.verify_max_ms"] = layers.verify_max_s * 1e3;
    m["analysis.instrs_verified"] =
        static_cast<double>(layers.instrs_verified);
    m["vm.run_s"] = layers.vm_s;
    m["vm.ns_per_instr"] = instrs > 0 ? layers.vm_s / instrs * 1e9 : 0.0;
    m["mica.profile_s"] = layers.characterize_s - layers.vm_s;
    m["mica.ns_per_instr"] =
        instrs > 0 ? (layers.characterize_s - layers.vm_s) / instrs * 1e9
                   : 0.0;
    m["core.characterize_s"] = characterize_s;
    m["core.characterize_straggler_s"] =
        stages.benchmark_seconds.empty()
            ? 0.0
            : *std::max_element(stages.benchmark_seconds.begin(),
                                stages.benchmark_seconds.end());
    m["core.characterize_busy_ratio"] =
        characterize_s > 0 ? busy / (threads * characterize_s) : 0.0;
    m["core.instrs_simulated"] = instrs;
    m["core.sample_s"] = sample_s;
    m["core.compare_s"] = compare_s;
    m["stats.pca_s"] = pca_s;
    m["stats.kmeans_s"] = kmeans_s;
    m["stats.kmeans_iterations"] = clustering.iterations;
    const auto &dc = clustering.distance_counters;
    m["stats.kmeans_pruned_ratio"] =
        dc.computed + dc.pruned > 0
            ? static_cast<double>(dc.pruned) /
                  static_cast<double>(dc.computed + dc.pruned)
            : 0.0;
    m["obs.trace_overhead"] = obs_wall / observed_wall - 1.0;
    m["traced_wall_s"] = secondsSince(traced_start);
    m["unattributed_s"] = rec.unattributed(root);
    result.note("pipeline_s (observed run)",
                std::to_string(observed_wall) + " s");
    return result;
}

Result
runAnalysisSweep(const RunOptions &opts, SpanRecorder &rec)
{
    Result result;
    core::ExperimentOutputs out;
    out.config = defaultConfig(opts.seed);
    double setup_s = 0.0;
    out.characterization =
        loadBenchCharacterization(opts, result, setup_s, 9);
    result.metrics["setup_s"] = setup_s;

    const int root = rec.begin("analysis_sweep", "bench", -1);
    const Clock::time_point traced_start = Clock::now();
    if (rec.enabled()) {
        // The layer metric for the set-up load, timed on its own.
        const ScopedSpan span(rec, "core.loadCharacterization", "core",
                              root);
        const workloads::SuiteCatalog catalog;
        core::CharacterizationResult again = catalogSkeleton(catalog);
        const Clock::time_point t0 = Clock::now();
        if (!core::loadCharacterization(benchCachePath(opts), again))
            result.fail("cache reload failed");
        result.metrics["core.cache_load_s"] = secondsSince(t0);
    }

    std::map<std::string, double> layer;
    std::vector<double> walls;
    double first_sweep_rss = 0.0;
    std::uint64_t first_digest = 0;
    const Clock::time_point start = Clock::now();
    do {
        const int sweep_span = rec.begin("bench.sweep", "bench", root);
        std::vector<std::uint64_t> digests;
        Result run;
        double wall = 0.0;
        {
            const Clock::time_point t0 = Clock::now();
            {
                const ScopedSpan span(rec, "core.sampleIntervals", "core",
                                      sweep_span);
                const Clock::time_point s0 = Clock::now();
                out.sampled = core::sampleIntervals(
                    out.characterization, out.config.samples_per_benchmark,
                    out.config.seed ^ 0x5A);
                layer["core.sample_s"] += secondsSince(s0);
            }
            for (std::size_t k : kSweepK) {
                const ScopedSpan k_span(rec, "k=" + std::to_string(k),
                                        "bench", sweep_span);
                out.config.kmeans_k = k;
                const std::string model_path = opts.state_dir +
                                               "/sweep_k" +
                                               std::to_string(k) + ".bin";
                StageRecorder stages(rec);
                {
                    const ScopedSpan span(rec, "core.analyzePhases", "core",
                                          k_span.id());
                    stages.setParent(span.id());
                    out.analysis = core::analyzePhases(
                        out.sampled, out.characterization, out.config,
                        rec.enabled() ? &stages : nullptr);
                }
                if (rec.enabled()) {
                    // Stand-alone stats calls with the pipeline's options;
                    // both must reproduce analyzePhases bitwise.
                    Clock::time_point s0;
                    stats::Pca pca;
                    stats::KMeansResult km;
                    {
                        const ScopedSpan span(rec, "stats.Pca::fit",
                                              "stats", k_span.id());
                        s0 = Clock::now();
                        pca = stats::Pca::fit(out.sampled.data,
                                              pcaOptions(out.config));
                        layer["stats.pca_s"] += secondsSince(s0);
                    }
                    {
                        const ScopedSpan span(rec, "stats.KMeans::run",
                                              "stats", k_span.id());
                        s0 = Clock::now();
                        km = stats::KMeans::run(out.analysis.reduced,
                                                kmeansOptions(out.config));
                        layer["stats.kmeans_s"] += secondsSince(s0);
                    }
                    layer["stats.kmeans_iterations"] += km.iterations;
                    layer["kmeans.computed"] +=
                        static_cast<double>(km.distance_counters.computed);
                    layer["kmeans.pruned"] +=
                        static_cast<double>(km.distance_counters.pruned);
                    if (!samePca(pca, out.analysis.pca))
                        run.fail("k=" + std::to_string(k) +
                                 ": Pca::fit differs from analyzePhases");
                    if (!sameClustering(km, out.analysis.clustering))
                        run.fail("k=" + std::to_string(k) +
                                 ": KMeans::run differs from analyzePhases");
                }
                {
                    const ScopedSpan span(rec, "core.compareSuites", "core",
                                          k_span.id());
                    const Clock::time_point s0 = Clock::now();
                    out.comparison = core::compareSuites(
                        out.characterization, out.sampled, out.analysis);
                    layer["core.compare_s"] += secondsSince(s0);
                }
                ga::GaResult keys;
                {
                    const ScopedSpan span(rec,
                                          "ga.selectKeyCharacteristics",
                                          "ga", k_span.id());
                    const Clock::time_point s0 = Clock::now();
                    keys = core::selectKeyCharacteristics(out);
                    layer["ga.select_s"] += secondsSince(s0);
                    layer["ga.generations"] += keys.generations;
                }
                {
                    const ScopedSpan span(rec, "model.export", "model",
                                          k_span.id());
                    const Clock::time_point s0 = Clock::now();
                    core::buildPhaseModel(out, keys).save(model_path);
                    layer["model.export_s"] += secondsSince(s0);
                }
                // Checks of this k (cheap; they stay inside the sweep so
                // each k's outputs are checked before the next overwrites
                // them, and cost microseconds).
                if (out.analysis.clustering.centers.rows() != k ||
                    out.analysis.clusters.size() != k ||
                    out.analysis.clustering.assignment.size() != kSampledRows)
                    run.fail("k=" + std::to_string(k) +
                             ": clustering has the wrong shape");
                if (keys.selected.size() != 12)
                    run.fail("k=" + std::to_string(k) + ": GA selected " +
                             std::to_string(keys.selected.size()));
                digests.push_back(analysisDigest(out.analysis));
                digests.push_back(fnv1a(keys.selected.data(),
                                        keys.selected.size() *
                                            sizeof(std::size_t)));
            }
            wall = secondsSince(t0);
        }
        rec.end(sweep_span);
        walls.push_back(wall);
        if (walls.size() == 1)
            first_sweep_rss = selfPeakRssMb();
        result.attempted += std::size(kSweepK);

        // Outside the timed sweep: the exported models must match
        // bitwise across sweeps of the same seed.
        if (out.sampled.data.rows() != kSampledRows)
            run.fail("sampled rows " +
                     std::to_string(out.sampled.data.rows()));
        for (std::size_t k : kSweepK)
            digests.push_back(fileDigest(opts.state_dir + "/sweep_k" +
                                         std::to_string(k) + ".bin"));
        const std::uint64_t d = fnv1a(digests.data(),
                                      digests.size() * sizeof(std::uint64_t));
        if (walls.size() == 1)
            first_digest = d;
        else if (d != first_digest)
            run.fail("repeated sweep differs bitwise");
        if (!run.checks_ok)
            result.failed += std::size(kSweepK);
        for (const auto &p : run.problems)
            result.fail(p);
    } while (!rec.enabled() && secondsSince(start) < opts.seconds);
    rec.end(root);

    const double job = median(walls);
    if (!rec.enabled()) {
        result.metrics["job_s"] = job;
        result.metrics["throughput_per_s"] =
            static_cast<double>(std::size(kSweepK) * kSampledRows) / job;
        result.metrics["peak_rss_mb"] = first_sweep_rss;
        result.note("sweep_s", std::to_string(job) + " s (" +
                                   std::to_string(walls.size()) +
                                   " sweeps)");
        return result;
    }

    auto &m = result.metrics;
    for (const char *name :
         {"core.sample_s", "core.compare_s", "stats.pca_s", "stats.kmeans_s",
          "stats.kmeans_iterations", "ga.select_s", "ga.generations",
          "model.export_s"})
        m[name] = layer[name];
    const double computed = layer["kmeans.computed"];
    const double pruned = layer["kmeans.pruned"];
    m["stats.kmeans_pruned_ratio"] =
        computed + pruned > 0 ? pruned / (computed + pruned) : 0.0;
    m["traced_wall_s"] = secondsSince(traced_start);
    m["unattributed_s"] = rec.unattributed(root);
    result.note("sweep_s (traced)", std::to_string(job) + " s");
    return result;
}

} // namespace e2e
