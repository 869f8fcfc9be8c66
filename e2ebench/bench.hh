/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the result a
 * workload fills in, the span recorder behind the traced runs, and small
 * timing and statistics helpers.
 *
 * The benchmark only calls public functions of the library and runs the
 * phase_serve process; it never instruments code under src/. Spans are
 * recorded here, not through src/obs, so a change to the obs layer cannot
 * change how the benchmark measures.
 */

#ifndef MICAPHASE_E2EBENCH_BENCH_HH
#define MICAPHASE_E2EBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/characterize.hh"

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string state_dir;   ///< bench-owned caches and model files
    std::string serve_bin;   ///< the phase_serve executable
    std::string trace_out;   ///< Chrome trace JSON of a traced run
};

/**
 * What one workload run reports. Metric names are checked against the
 * fixed end-to-end / per-layer lists in main.cc before printing.
 */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool checks_ok = true;
    std::vector<std::string> problems;   ///< failed output checks
    std::map<std::string, double> metrics;
    /** The usual names of the generic metrics, printed for humans. */
    std::vector<std::pair<std::string, std::string>> notes;

    /** Record a failed output check (the run stays measurable). */
    void fail(const std::string &what)
    {
        checks_ok = false;
        problems.push_back(what);
    }

    void note(const std::string &name, const std::string &value)
    {
        notes.emplace_back(name, value);
    }
};

/**
 * In-memory span recorder for traced runs. A span has a name, a layer
 * (the module whose public function it times), start, end, a parent and
 * the id of the workload run it belongs to. Thread-safe; written out as
 * Chrome trace-event JSON when the run ends.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0.0; ///< seconds since the recorder's origin
        double end = 0.0;
        int parent = -1;    ///< index into spans(), -1 for the root
        unsigned tid = 0;   ///< display lane
    };

    explicit SpanRecorder(std::string run_id);

    /** Disabled recorders ignore every call (untraced runs). */
    void enable(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /** Open a span; returns its id (or -1 when disabled). */
    int begin(std::string name, std::string layer, int parent,
              unsigned tid = 0);
    void end(int id);
    /** Record an already-measured interval. */
    int add(std::string name, std::string layer, int parent,
            Clock::time_point start, Clock::time_point end,
            unsigned tid = 0);

    [[nodiscard]] double at(Clock::time_point t) const
    {
        return secondsBetween(origin_, t);
    }

    /** Self time per layer: duration minus the union of child spans. */
    [[nodiscard]] std::map<std::string, double> selfTimeByLayer() const;
    /** Root duration minus the union of the root's direct children. */
    [[nodiscard]] double unattributed(int root) const;

    /** Write Chrome trace-event JSON; returns false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::vector<std::vector<int>> childrenLocked() const;

    std::string run_id_;
    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; inert when the recorder is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string layer,
               int parent)
        : rec_(rec), id_(rec.begin(std::move(name), std::move(layer),
                                   parent))
    {}
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    [[nodiscard]] int id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int id_;
};

[[nodiscard]] double median(std::vector<double> v);
/** Nearest-rank percentile, q in [0, 1]. */
[[nodiscard]] double percentile(std::vector<double> v, double q);

/** FNV-1a over raw bytes, chained through `h`. */
[[nodiscard]] std::uint64_t fnv1a(const void *data, std::size_t bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

/** Digest of a characterization: ids, interval owners and value bits. */
[[nodiscard]] std::uint64_t
characterizationDigest(const mica::core::CharacterizationResult &chars);

/**
 * Peak resident set of this process so far, in MB. The pipeline
 * workloads read it after their first pipeline or sweep, a fixed amount
 * of work: later repetitions only add allocator drift (which worker
 * arena keeps a freed multi-megabyte matrix), which moved the peak of
 * analysis_sweep between 43 and 58 MB across seeds.
 */
[[nodiscard]] double selfPeakRssMb();

/** Bench-owned splitmix64 + Box-Muller generator (independent of src/). */
class RowRng
{
  public:
    explicit RowRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform(); ///< (0, 1]
    double gaussian();

  private:
    std::uint64_t state_;
    bool have_spare_ = false;
    double spare_ = 0.0;
};

// Workload entry points (pipeline_workloads.cc, serve_workloads.cc).
Result runPipelineCold(const RunOptions &opts, SpanRecorder &rec);
Result runAnalysisSweep(const RunOptions &opts, SpanRecorder &rec);
Result runServeBulk(const RunOptions &opts, SpanRecorder &rec);
Result runServeInteractive(const RunOptions &opts, SpanRecorder &rec);

/**
 * The default characterization through the bench-owned cache in
 * state_dir (computed and saved on first use). Sets `load_s` to the
 * median time of `reps` loads (catalog + loadCharacterization) and
 * checks the default-scale invariants and the recorded digest.
 */
mica::core::CharacterizationResult
loadBenchCharacterization(const RunOptions &opts, Result &result,
                          double &load_s, int reps);

/** Default-scale invariants, checked on every workload's outputs. */
inline constexpr std::size_t kBenchmarks = 77;
inline constexpr std::size_t kIntervals = 7238;
inline constexpr std::size_t kSampledRows = 15400;
inline constexpr std::size_t kDefaultK = 300;

} // namespace e2e

#endif // MICAPHASE_E2EBENCH_BENCH_HH
