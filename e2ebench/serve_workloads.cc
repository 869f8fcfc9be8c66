/**
 * @file
 * The serving workloads: serve_bulk (one writer streams CSV rows into a
 * phase_serve process as fast as the pipe accepts them) and
 * serve_interactive (an open loop of NDJSON requests at fixed rates into
 * `phase_serve --batch 1`, with #assess and #reload directives mixed in).
 * phase_serve only ever receives rows from the bench's own seeded
 * generator, and every reply is compared byte for byte, after the timed
 * section, with an in-process placeBatch oracle.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "core/model_export.hh"
#include "core/pipeline.hh"
#include "model/live_model.hh"
#include "model/reader.hh"

namespace e2e {

using namespace mica;

namespace {

/** Rows per reply block in serve_bulk (eight default waves of 512). */
constexpr std::uint64_t kBulkBlock = 4096;
/** serve_bulk's wave size: phase_serve's default --batch. */
constexpr std::size_t kBulkWave = 512;
/** phase_serve's row tiling inside a wave (its ProjectOptions). */
constexpr std::size_t kServeBlockRows = 64;

/**
 * serve_interactive's open-loop ladder (rows/s) and p99 latency limit.
 * The first rate is the base rate, where the reply percentiles are
 * taken. The frontend answers ~22k rows/s at --batch 1 on a 4-core host
 * and the ladder climbs far past it, so that a faster frontend can show
 * a gain. The limit is loose because a virtualized host stalls threads
 * for several milliseconds at random; below capacity the tail is such
 * stalls, above it the backlog grows without bound.
 */
constexpr double kLadder[] = {5000, 12000, 30000, 75000, 180000};
constexpr double kLatencyLimitS = 0.025;
/**
 * Shares of the run: the base rate, the closing capacity burst, and the
 * other rates, which split the rest evenly.
 */
constexpr double kBaseShare = 0.3;
constexpr double kBurstShare = 0.3;
constexpr std::uint64_t kAssessEvery = 256;
constexpr std::uint64_t kReloadEvery = 4096;
/**
 * A rung whose generator ran later than this at its p99 is measuring the
 * bench, not the server: it is repeated, and a run whose rung stays late
 * after kRungAttempts is invalid.
 */
constexpr double kMaxGenLateS = 0.001;
constexpr int kRungAttempts = 3;

// --------------------------------------------------------------------
// Child process

/** A phase_serve child with pipes on its stdin and stdout. */
class ServeProcess
{
  public:
    ServeProcess(const std::string &bin, const std::vector<std::string> &args)
    {
        int in_pipe[2];
        int out_pipe[2];
        if (pipe2(in_pipe, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        if (pipe2(out_pipe, O_CLOEXEC) != 0) {
            close(in_pipe[0]);
            close(in_pipe[1]);
            throw std::runtime_error("pipe2 failed");
        }
        std::vector<std::string> argv_s = {bin};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (auto &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        pid_ = fork();
        if (pid_ == 0) {
            // Child: die with the bench, then exec phase_serve.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            dup2(in_pipe[0], STDIN_FILENO);
            dup2(out_pipe[1], STDOUT_FILENO);
            execv(bin.c_str(), argv.data());
            _exit(127);
        }
        close(in_pipe[0]);
        close(out_pipe[1]);
        to_child_ = in_pipe[1];
        from_child_ = out_pipe[0];
        if (pid_ < 0) {
            closeInput();
            close(from_child_);
            throw std::runtime_error("fork failed");
        }
    }

    ~ServeProcess()
    {
        closeInput();
        if (from_child_ >= 0)
            close(from_child_);
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    ServeProcess(const ServeProcess &) = delete;
    ServeProcess &operator=(const ServeProcess &) = delete;

    [[nodiscard]] pid_t pid() const { return pid_; }
    [[nodiscard]] int input() const { return to_child_; }
    [[nodiscard]] int output() const { return from_child_; }

    void
    closeInput()
    {
        if (to_child_ >= 0)
            close(to_child_);
        to_child_ = -1;
    }

    /** Close stdin and reap; returns the exit status (-1 if killed). */
    int
    finish()
    {
        closeInput();
        int status = 0;
        const pid_t r = waitpid(pid_, &status, 0);
        pid_ = -1;
        if (r < 0 || !WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

    /**
     * The process's own peak RSS in MB (VmHWM). Read while it is alive:
     * the rusage of a forked child also counts the parent's pages it
     * shared before exec.
     */
    [[nodiscard]] double
    peakRssMb() const
    {
        std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(status, line))
            if (line.rfind("VmHWM:", 0) == 0)
                return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        return 0.0;
    }

  private:
    pid_t pid_ = -1;
    int to_child_ = -1;
    int from_child_ = -1;
};

/** Write all bytes; returns false on a closed pipe. */
bool
writeAll(int fd, const char *data, std::size_t n, double &blocked_s)
{
    while (n > 0) {
        const Clock::time_point t0 = Clock::now();
        const ssize_t w = write(fd, data, n);
        blocked_s += secondsSince(t0);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

/** Read one reply line (the ready probe's answer). */
bool
readLine(int fd, std::string &line)
{
    line.clear();
    char c = 0;
    while (true) {
        const ssize_t r = read(fd, &c, 1);
        if (r < 0 && errno == EINTR)
            continue;
        if (r <= 0)
            return false;
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

// --------------------------------------------------------------------
// Model, rows and oracle

std::string
formatAssessment(std::uint64_t seq, std::uint64_t gen,
                 const model::WorkloadAssessment &a)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"seq\":%" PRIu64 ",\"gen\":%" PRIu64
                  ",\"assessment\":{\"rows\":%zu,"
                  "\"clusters_covered\":%zu,\"coverage_fraction\":%.17g,"
                  "\"shared_fraction\":%.17g,\"novel_fraction\":%.17g,"
                  "\"mean_distance\":%.17g,\"max_distance\":%.17g}}",
                  seq, gen, a.rows, a.clusters_covered, a.coverage_fraction,
                  a.shared_fraction, a.novel_fraction, a.mean_distance,
                  a.max_distance);
    return buf;
}

std::string
formatRow(std::uint64_t seq, std::uint64_t gen, const std::string &id,
          std::size_t cluster, double dist2)
{
    char buf[256];
    if (id.empty())
        std::snprintf(buf, sizeof buf,
                      "{\"seq\":%" PRIu64 ",\"gen\":%" PRIu64
                      ",\"cluster\":%zu,\"dist2\":%.17g}",
                      seq, gen, cluster, dist2);
    else
        std::snprintf(buf, sizeof buf,
                      "{\"seq\":%" PRIu64 ",\"gen\":%" PRIu64
                      ",\"id\":\"%s\",\"cluster\":%zu,\"dist2\":%.17g}",
                      seq, gen, id.c_str(), cluster, dist2);
    return buf;
}

/** Build the default-shape model (p=69, m≈14, k=300) into state_dir. */
std::string
prepareModel(const RunOptions &opts, Result &result, SpanRecorder &rec,
             int parent)
{
    const ScopedSpan span(rec, "bench.prepare_model", "bench", parent);
    double load_s = 0.0;
    core::ExperimentOutputs out;
    out.characterization =
        loadBenchCharacterization(opts, result, load_s, 1);
    out.config.cache_dir.clear();
    out.config.threads = 0;
    out.sampled = core::sampleIntervals(out.characterization,
                                        out.config.samples_per_benchmark,
                                        out.config.seed ^ 0x5A);
    out.analysis = core::analyzePhases(out.sampled, out.characterization,
                                       out.config);
    out.comparison = core::compareSuites(out.characterization, out.sampled,
                                         out.analysis);
    const std::string path = opts.state_dir + "/serve_model.bin";
    core::buildPhaseModel(out).save(path);
    return path;
}

/** Seeded rows near the model's training distribution, with oracle. */
struct RowPool
{
    std::vector<std::string> text; ///< each value printed with %.17g
    stats::Matrix rows{0, 0};      ///< the same values, parsed back
    model::Projection oracle;      ///< in-process placement of `rows`
};

RowPool
makeRows(const model::ModelReader &reader, std::uint64_t seed,
         std::size_t count)
{
    const model::PhaseModel &meta = reader.meta();
    const stats::MatrixView prominent = reader.prominentRaw();
    const std::size_t p = reader.columns();
    RowRng rng(seed);
    RowPool pool;
    std::vector<double> values(p);
    char buf[64];
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t base_row =
            prominent.rows() > 0 ? rng.next() % prominent.rows() : 0;
        std::string line;
        for (std::size_t c = 0; c < p; ++c) {
            const double base = prominent.rows() > 0
                                    ? prominent.at(base_row, c)
                                    : meta.norm_mean[c];
            const double v =
                base + 0.25 * meta.norm_stddev[c] * rng.gaussian();
            std::snprintf(buf, sizeof buf, "%.17g", v);
            values[c] = std::strtod(buf, nullptr);
            if (c > 0)
                line.push_back(',');
            line += buf;
        }
        pool.text.push_back(std::move(line));
        pool.rows.appendRow(values);
    }
    pool.oracle = reader.placeBatch(pool.rows);
    return pool;
}

/**
 * In-process placeBatch throughput at phase_serve's wave size and
 * threads, over `total` rows cycled from the pool.
 */
double
placeRowsPerSecond(const model::ModelReader &reader, const RowPool &pool,
                   std::size_t wave, std::uint64_t total)
{
    std::vector<stats::Matrix> waves;
    for (std::size_t r = 0; r + wave <= pool.rows.rows(); r += wave) {
        stats::Matrix m(0, 0);
        for (std::size_t i = r; i < r + wave; ++i)
            m.appendRow(pool.rows.row(i));
        waves.push_back(std::move(m));
    }
    stats::ProjectOptions popts;
    popts.threads = 0;
    popts.block_rows = kServeBlockRows;
    std::uint64_t done = 0;
    std::size_t next = 0;
    double busy = 0.0;
    while (done < total) {
        const Clock::time_point t0 = Clock::now();
        const model::Projection proj =
            reader.placeBatch(waves[next], popts);
        busy += secondsSince(t0);
        done += proj.assignment.size();
        next = (next + 1) % waves.size();
    }
    return static_cast<double>(done) / busy;
}

double
medianOpenSeconds(const std::string &path, int reps)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        const auto reader = model::open(path, {model::OpenMode::Mmap});
        t.push_back(secondsSince(t0));
    }
    return median(t);
}

constexpr int kStarts = 9;

/**
 * Set-up of both serve workloads: start phase_serve kStarts times and
 * time each start until it answers a first `#assess` probe; keep the
 * last process for the measurement. Returns it with setup_s filled.
 */
std::unique_ptr<ServeProcess>
startServer(const RunOptions &opts, const std::vector<std::string> &args,
            const model::ModelReader &reader, Result &result,
            SpanRecorder &rec, int parent)
{
    std::vector<double> starts;
    std::unique_ptr<ServeProcess> proc;
    const std::string want =
        formatAssessment(1, 1, reader.assessWorkload(model::Projection{}));
    for (int rep = 0; rep < kStarts; ++rep) {
        const ScopedSpan span(rec, "serve.start", "serve", parent);
        const Clock::time_point t0 = Clock::now();
        proc = std::make_unique<ServeProcess>(opts.serve_bin, args);
        double ignored = 0.0;
        std::string line;
        if (!writeAll(proc->input(), "#assess\n", 8, ignored) ||
            !readLine(proc->output(), line))
            throw std::runtime_error("phase_serve did not start");
        starts.push_back(secondsSince(t0));
        if (line != want)
            result.fail("ready probe reply: " + line);
        if (rep + 1 < kStarts) {
            if (proc->finish() != 0)
                result.fail("phase_serve exited abnormally after probe");
        }
    }
    result.metrics["setup_s"] = median(starts);
    return proc;
}

/** Compare the replies, line by line, with the expected lines. */
void
compareReplies(const std::string &replies,
               const std::vector<std::string> &expected, Result &result)
{
    std::size_t pos = 0;
    std::uint64_t mismatched = 0, errors = 0;
    std::size_t i = 0;
    for (; i < expected.size() && pos < replies.size(); ++i) {
        std::size_t nl = replies.find('\n', pos);
        if (nl == std::string::npos)
            nl = replies.size();
        const std::string_view line(replies.data() + pos, nl - pos);
        if (line != expected[i]) {
            ++mismatched;
            if (line.find("\"error\"") != std::string_view::npos)
                ++errors;
            if (mismatched <= 3)
                result.fail("reply " + std::to_string(i) + ": got " +
                            std::string(line) + ", expected " +
                            expected[i]);
        }
        pos = nl + 1;
    }
    const std::uint64_t missing = expected.size() - i;
    if (pos < replies.size())
        result.fail("phase_serve sent more replies than requests");
    if (missing > 0)
        result.fail(std::to_string(missing) + " replies missing");
    if (mismatched > 0)
        result.fail(std::to_string(mismatched) + " replies differ (" +
                    std::to_string(errors) + " error replies)");
    result.failed += mismatched + missing;
}

/** What serve_bulk's reader thread saw. */
struct Reader
{
    std::string bytes;
    double wait_s = 0.0; ///< blocked in read()
    /** (replies so far, when they had arrived), per read(). */
    std::vector<std::pair<std::uint64_t, Clock::time_point>> marks;
    std::atomic<std::uint64_t> lines{0};

    /** When the n-th reply had arrived. */
    [[nodiscard]] Clock::time_point
    arrivalOf(std::uint64_t n) const
    {
        const auto it = std::lower_bound(
            marks.begin(), marks.end(), n,
            [](const auto &mark, std::uint64_t v) { return mark.first < v; });
        return it == marks.end() ? Clock::time_point{} : it->second;
    }
};

/** Drain the child's stdout until EOF, timestamping replies. */
void
readReplies(int fd, Reader &r)
{
    std::vector<char> buf(1 << 20);
    std::uint64_t lines = 0;
    while (true) {
        const Clock::time_point t0 = Clock::now();
        const ssize_t n = read(fd, buf.data(), buf.size());
        const Clock::time_point t1 = Clock::now();
        r.wait_s += secondsBetween(t0, t1);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        r.bytes.append(buf.data(), static_cast<std::size_t>(n));
        lines += static_cast<std::uint64_t>(
            std::count(buf.data(), buf.data() + n, '\n'));
        r.marks.emplace_back(lines, t1);
        r.lines.store(lines, std::memory_order_release);
    }
}

/** Record the idle server's peak RSS, then close its input and reap. */
void
finishServer(ServeProcess &proc, Result &result)
{
    result.metrics["peak_rss_mb"] = proc.peakRssMb();
    if (proc.finish() != 0)
        result.fail("phase_serve exited abnormally");
}

/** Traced-run layer metrics shared by both serve workloads. */
void
measureModelLayer(const std::string &path, const model::ModelReader &reader,
                  const RowPool &pool, std::size_t wave,
                  std::uint64_t rows, Result &result, SpanRecorder &rec,
                  int parent)
{
    auto &m = result.metrics;
    {
        const ScopedSpan span(rec, "model.open", "model", parent);
        m["model.open_s"] = medianOpenSeconds(path, 5);
    }
    {
        const ScopedSpan span(rec, "model.placeBatch", "model", parent);
        m["model.place_rows_per_s"] = placeRowsPerSecond(
            reader, pool, wave, std::clamp<std::uint64_t>(rows, 4096, 200000));
    }
}

} // namespace

Result
runServeBulk(const RunOptions &opts, SpanRecorder &rec)
{
    Result result;
    const int root = rec.begin("serve_bulk", "bench", -1);
    const Clock::time_point traced_start = Clock::now();
    const std::string path = prepareModel(opts, result, rec, root);
    const auto reader = model::open(path, {model::OpenMode::Mmap});
    if (reader->columns() != 69 || reader->numClusters() != kDefaultK)
        result.fail("serve model is not p=69, k=300");

    RowPool pool;
    {
        const ScopedSpan span(rec, "bench.generate_rows", "bench", root);
        pool = makeRows(*reader, opts.seed, 8192);
    }
    std::string stream;
    std::vector<std::size_t> offsets = {0};
    for (const std::string &line : pool.text) {
        stream += line;
        stream.push_back('\n');
        offsets.push_back(stream.size());
    }

    auto proc = startServer(opts, {"--model", path}, *reader, result, rec,
                            root);

    Reader replies;
    std::uint64_t sent = 0;
    std::uint64_t bytes_written = 0;
    double write_blocked = 0.0;
    bool write_ok = true;
    Clock::time_point t0;
    {
        const ScopedSpan span(rec, "serve.stream", "serve", root);
        std::thread reader_thread(readReplies, proc->output(),
                                  std::ref(replies));
        t0 = Clock::now();
        const Clock::time_point deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(opts.seconds));
        std::size_t next = 0;
        const std::size_t rows = pool.text.size();
        while (Clock::now() < deadline) {
            std::size_t end = next + 1;
            while (end < rows && offsets[end + 1] - offsets[next] <= 65536)
                ++end;
            if (!writeAll(proc->input(), stream.data() + offsets[next],
                          offsets[end] - offsets[next], write_blocked)) {
                write_ok = false;
                break;
            }
            sent += end - next;
            bytes_written += offsets[end] - offsets[next];
            next = end % rows;
        }
        // A closing #assess flushes the last partial wave and leaves the
        // server idle, so its peak RSS can be read before it exits.
        if (write_ok && writeAll(proc->input(), "#assess\n", 8, write_blocked)) {
            const Clock::time_point limit =
                Clock::now() + std::chrono::seconds(10);
            while (replies.lines.load(std::memory_order_acquire) < sent + 1 &&
                   Clock::now() < limit)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        finishServer(*proc, result);
        reader_thread.join();
    }
    if (!write_ok)
        result.fail("phase_serve closed its input early");

    const double wall = secondsBetween(t0, replies.arrivalOf(sent));
    result.attempted = sent;
    {
        const ScopedSpan span(rec, "bench.check", "bench", root);
        std::vector<std::string> expected;
        expected.reserve(sent);
        for (std::uint64_t i = 0; i < sent; ++i) {
            const std::size_t r = i % pool.text.size();
            expected.push_back(formatRow(i + 2, 1, "",
                                         pool.oracle.assignment[r],
                                         pool.oracle.dist2[r]));
        }
        model::Projection served;
        for (std::uint64_t i = 0; i < sent; ++i) {
            const std::size_t r = i % pool.text.size();
            served.assignment.push_back(pool.oracle.assignment[r]);
            served.dist2.push_back(pool.oracle.dist2[r]);
        }
        expected.push_back(formatAssessment(sent + 2, 1,
                                            reader->assessWorkload(served)));
        compareReplies(replies.bytes, expected, result);
    }

    std::vector<double> block_s;
    Clock::time_point prev = t0;
    for (std::uint64_t n = kBulkBlock; n <= sent; n += kBulkBlock) {
        const Clock::time_point t = replies.arrivalOf(n);
        block_s.push_back(secondsBetween(prev, t));
        prev = t;
    }
    const double rows_per_s = static_cast<double>(sent) / wall;
    if (!rec.enabled()) {
        result.metrics["job_s"] = median(block_s);
        result.metrics["throughput_per_s"] = rows_per_s;
        result.note("rows_per_s", std::to_string(rows_per_s) + " rows/s (" +
                                      std::to_string(sent) + " rows)");
        rec.end(root);
        return result;
    }

    measureModelLayer(path, *reader, pool, kBulkWave, sent, result, rec,
                      root);
    rec.end(root);
    auto &m = result.metrics;
    const double place_s = static_cast<double>(sent) /
                           m["model.place_rows_per_s"];
    m["serve.frontend_share"] = 1.0 - place_s / wall;
    m["serve.write_blocked_s"] = write_blocked;
    m["serve.reply_wait_s"] = replies.wait_s;
    m["serve.bytes_in"] = static_cast<double>(bytes_written);
    m["serve.bytes_out"] = static_cast<double>(replies.bytes.size());
    m["traced_wall_s"] = secondsSince(traced_start);
    m["unattributed_s"] = rec.unattributed(root);
    result.note("rows_per_s (traced)", std::to_string(rows_per_s));
    return result;
}

namespace {

/** One open-loop request. */
struct Request
{
    enum class Kind { Row, Assess, Reload } kind = Kind::Row;
    std::size_t row = 0; ///< pool row (Kind::Row)
    Clock::time_point due{};
    Clock::time_point enqueued{}; ///< when the generator emitted it
};

struct Rung
{
    double rate = 0.0;
    std::size_t first = 0, count = 0; ///< request index range
    bool aborted = false;             ///< stopped: backlog kept growing
    std::uint64_t backlog_at_end = 0; ///< unanswered when sending ended
};

void
setNonBlocking(int fd)
{
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
}

/**
 * The open-loop client: one thread that emits requests when due, writes
 * them without ever blocking, and timestamps replies as they arrive. It
 * polls instead of sleeping, because a sleeping thread on a virtualized
 * host can wake milliseconds late, which would show up as generator
 * lateness rather than as the server's latency.
 */
class OpenLoopClient
{
  public:
    OpenLoopClient(ServeProcess &proc, const std::vector<std::string> &bodies)
        : proc_(proc), bodies_(bodies)
    {
        setNonBlocking(proc.input());
        setNonBlocking(proc.output());
    }

    std::vector<Request> requests;
    std::vector<Clock::time_point> arrivals; ///< per reply line
    std::string replies;
    std::uint64_t bytes_in = 0;
    double write_blocked_s = 0.0; ///< time the pipe refused pending bytes
    double reply_wait_s = 0.0;    ///< time with requests unanswered
    bool write_ok = true;

    /**
     * Offer `count` requests at `rate` per second, then wait for their
     * replies. `sequence` numbers requests across rungs and places the
     * #assess / #reload directives.
     */
    Rung
    runRung(double rate, std::size_t count, std::uint64_t &sequence)
    {
        Rung rung;
        rung.rate = rate;
        rung.first = requests.size();
        // More than two latency limits of queued work: the backlog grows.
        const std::uint64_t max_backlog =
            static_cast<std::uint64_t>(rate * 2.0 * kLatencyLimitS) + 64;
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(10);
        auto due = [&](std::size_t i) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / rate));
        };
        std::size_t i = 0;
        while (i < count || pending() > 0) {
            const Clock::time_point now = Clock::now();
            for (; i < count && due(i) <= now; ++i)
                emit(++sequence, due(i), now);
            poll(now);
            if (!write_ok)
                break;
            if (requests.size() - arrivals.size() > max_backlog) {
                rung.aborted = true;
                break;
            }
        }
        rung.count = requests.size() - rung.first;
        rung.backlog_at_end = requests.size() - arrivals.size();
        // Drain before the next rate; a stuck server shows up as missing
        // replies in the checks.
        const Clock::time_point deadline =
            Clock::now() + std::chrono::seconds(5);
        while (arrivals.size() < requests.size() && write_ok &&
               Clock::now() < deadline)
            poll(Clock::now());
        return rung;
    }

    /**
     * Send requests of the same mix back to back for `seconds`, keeping
     * a bounded amount in flight in the pipe, and return the reply rate:
     * the frontend's capacity at this batch size.
     */
    double
    runBurst(double seconds, std::uint64_t &sequence)
    {
        const std::size_t first = requests.size();
        const Clock::time_point start = Clock::now();
        const Clock::time_point stop =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        const Clock::time_point deadline = stop + std::chrono::seconds(5);
        while (write_ok && Clock::now() < deadline) {
            const Clock::time_point now = Clock::now();
            const bool sending = now < stop;
            if (!sending && arrivals.size() >= requests.size())
                break;
            while (sending && pending() < (1u << 18))
                emit(++sequence, now, now);
            poll(now);
        }
        if (arrivals.size() < requests.size() || arrivals.size() == first)
            return 0.0;
        return static_cast<double>(arrivals.size() - first) /
               secondsBetween(start, arrivals.back());
    }

    /** Close the server's input and read until it exits. */
    void
    finish()
    {
        while (pending() > 0 && write_ok)
            poll(Clock::now());
        proc_.closeInput();
        while (readOnce() != 0) {
        }
    }

  private:
    [[nodiscard]] std::size_t pending() const
    {
        return out_.size() - out_off_;
    }

    /** Queue request number `sequence` (directives at fixed places). */
    void
    emit(std::uint64_t sequence, Clock::time_point due,
         Clock::time_point now)
    {
        Request q;
        if (sequence % kReloadEvery == 0)
            q.kind = Request::Kind::Reload;
        else if (sequence % kAssessEvery == 0)
            q.kind = Request::Kind::Assess;
        q.row = sequence % bodies_.size();
        q.due = due;
        q.enqueued = now;
        requests.push_back(q);
        appendLine(requests.size() - 1);
    }

    void
    appendLine(std::size_t j)
    {
        const Request &q = requests[j];
        switch (q.kind) {
          case Request::Kind::Assess: out_ += "#assess\n"; break;
          case Request::Kind::Reload: out_ += "#reload\n"; break;
          case Request::Kind::Row:
            out_ += "{\"id\":\"q" + std::to_string(j) + "\",";
            out_ += bodies_[q.row];
            break;
        }
    }

    /** One non-blocking write and read pass. */
    void
    poll(Clock::time_point now)
    {
        if (pending() > 0) {
            const ssize_t w = write(proc_.input(), out_.data() + out_off_,
                                    pending());
            if (w > 0) {
                out_off_ += static_cast<std::size_t>(w);
                bytes_in += static_cast<std::uint64_t>(w);
            } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
                write_ok = false;
            }
            if (pending() > 0) {
                if (!blocked_)
                    blocked_since_ = now;
                blocked_ = true;
            } else {
                out_.clear();
                out_off_ = 0;
            }
        }
        if (blocked_ && pending() == 0) {
            write_blocked_s += secondsSince(blocked_since_);
            blocked_ = false;
        }
        const bool waiting = arrivals.size() < requests.size();
        readOnce();
        if (waiting)
            reply_wait_s += secondsSince(now);
    }

    /**
     * Read what is available; 0 at EOF (or a broken pipe), -1 when
     * nothing was ready.
     */
    int
    readOnce()
    {
        char buf[1 << 16];
        const ssize_t n = read(proc_.output(), buf, sizeof buf);
        if (n < 0)
            return errno == EAGAIN || errno == EINTR ? -1 : 0;
        if (n == 0)
            return 0;
        const Clock::time_point t = Clock::now();
        replies.append(buf, static_cast<std::size_t>(n));
        for (ssize_t k = 0; k < n; ++k)
            if (buf[k] == '\n')
                arrivals.push_back(t);
        return 1;
    }

    ServeProcess &proc_;
    const std::vector<std::string> &bodies_;
    std::string out_;
    std::size_t out_off_ = 0;
    bool blocked_ = false;
    Clock::time_point blocked_since_{};
};

/** Latency (from when each request was due) and verdict of one rung. */
struct RungStats
{
    double p50 = 0.0, p99 = 0.0;
    double late_p99 = 0.0;    ///< generator lateness
    double achieved = 0.0;    ///< requests / (last reply - first due)
    bool pass = false;        ///< p99 within the limit, backlog bounded
    std::vector<double> late;
};

RungStats
rungStats(const OpenLoopClient &client, const Rung &rung)
{
    RungStats st;
    std::vector<double> lat;
    Clock::time_point last_reply{};
    for (std::size_t j = rung.first;
         j < rung.first + rung.count && j < client.arrivals.size(); ++j) {
        const Request &q = client.requests[j];
        lat.push_back(secondsBetween(q.due, client.arrivals[j]));
        st.late.push_back(secondsBetween(q.due, q.enqueued));
        last_reply = std::max(last_reply, client.arrivals[j]);
    }
    st.p50 = median(lat);
    st.p99 = percentile(lat, 0.99);
    st.late_p99 = percentile(st.late, 0.99);
    const bool complete = lat.size() == rung.count && rung.count > 0;
    if (complete)
        st.achieved = static_cast<double>(rung.count) /
                      secondsBetween(client.requests[rung.first].due,
                                     last_reply);
    st.pass = complete && !rung.aborted && st.p99 <= kLatencyLimitS &&
              static_cast<double>(rung.backlog_at_end) <=
                  rung.rate * kLatencyLimitS + 1;
    return st;
}

} // namespace

Result
runServeInteractive(const RunOptions &opts, SpanRecorder &rec)
{
    Result result;
    const int root = rec.begin("serve_interactive", "bench", -1);
    const Clock::time_point traced_start = Clock::now();
    const std::string path = prepareModel(opts, result, rec, root);
    const auto reader = model::open(path, {model::OpenMode::Mmap});
    if (reader->columns() != 69 || reader->numClusters() != kDefaultK)
        result.fail("serve model is not p=69, k=300");

    RowPool pool;
    std::vector<std::string> bodies; // NDJSON after the id
    {
        const ScopedSpan span(rec, "bench.generate_rows", "bench", root);
        pool = makeRows(*reader, opts.seed, 4096);
        for (const std::string &t : pool.text)
            bodies.push_back("\"values\":[" + t + "]}\n");
    }

    auto proc = startServer(opts, {"--model", path, "--batch", "1"},
                            *reader, result, rec, root);

    OpenLoopClient client(*proc, bodies);
    std::vector<Rung> rungs;
    double capacity = 0.0;
    {
        const ScopedSpan ladder_span(rec, "serve.ladder", "serve", root);
        const double rest = opts.seconds * (1.0 - kBaseShare - kBurstShare) /
                            static_cast<double>(std::size(kLadder) - 1);
        std::uint64_t sequence = 0;
        for (std::size_t ri = 0; ri < std::size(kLadder); ++ri) {
            const double rate = kLadder[ri];
            const double dur = ri == 0 ? opts.seconds * kBaseShare : rest;
            bool missed = false;
            for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
                const ScopedSpan span(
                    rec, "rung " + std::to_string(static_cast<long>(rate)) +
                             " rows/s",
                    "serve", ladder_span.id());
                const Rung rung = client.runRung(
                    rate, static_cast<std::size_t>(rate * dur), sequence);
                if (attempt == 0)
                    rungs.push_back(rung);
                else
                    rungs.back() = rung;
                // Repeat a rung whose generator ran late (the attempt
                // measured the bench), and once a rung that missed the
                // limit without a growing backlog, so that one host stall
                // cannot decide its verdict.
                const RungStats st = rungStats(client, rung);
                const bool late = st.late_p99 > kMaxGenLateS;
                if (rung.aborted || (!late && (st.pass || missed)))
                    break;
                missed = missed || (!late && !st.pass);
                result.note("rung " +
                                std::to_string(static_cast<long>(rate)) +
                                " rows/s",
                            late ? "generator ran late, repeating the rung"
                                 : "missed the limit, repeating once");
            }
            if (rungs.back().aborted || !client.write_ok)
                break;
        }
        {
            const ScopedSpan span(rec, "capacity burst", "serve",
                                  ladder_span.id());
            capacity =
                client.runBurst(opts.seconds * kBurstShare, sequence);
        }
        result.metrics["peak_rss_mb"] = proc->peakRssMb();
        client.finish();
    }
    if (proc->finish() != 0)
        result.fail("phase_serve exited abnormally");
    if (!client.write_ok)
        result.fail("phase_serve closed its input early");
    const std::vector<Request> &requests = client.requests;
    result.attempted = requests.size();

    // Oracle, after the timed section: replay the protocol in-process.
    // (The ready probe's reply was consumed at start-up.)
    {
        const ScopedSpan span(rec, "bench.check", "bench", root);
        std::vector<std::string> expected;
        expected.reserve(requests.size());
        std::uint64_t gen = 1;
        model::Projection served;
        for (std::size_t j = 0; j < requests.size(); ++j) {
            const std::uint64_t seq = j + 2;
            const Request &q = requests[j];
            switch (q.kind) {
              case Request::Kind::Row:
                expected.push_back(formatRow(
                    seq, gen, "q" + std::to_string(j),
                    pool.oracle.assignment[q.row], pool.oracle.dist2[q.row]));
                served.assignment.push_back(pool.oracle.assignment[q.row]);
                served.dist2.push_back(pool.oracle.dist2[q.row]);
                break;
              case Request::Kind::Assess:
                expected.push_back(formatAssessment(
                    seq, gen, reader->assessWorkload(served)));
                break;
              case Request::Kind::Reload:
                ++gen;
                served = model::Projection{};
                expected.push_back("{\"seq\":" + std::to_string(seq) +
                                   ",\"gen\":" + std::to_string(gen) +
                                   ",\"reloaded\":true}");
                break;
            }
        }
        compareReplies(client.replies, expected, result);
    }

    // Latency from when each request was due; a rung meets the limit when
    // its p99 does and the backlog stayed bounded.
    std::vector<double> late_all;
    double best_rate = 0.0;
    double base_p50 = 0.0, base_p99 = 0.0;
    bool generator_ok = true;
    bool all_passed = true;
    for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
        const Rung &rung = rungs[ri];
        const RungStats st = rungStats(client, rung);
        if (!rung.aborted) {
            late_all.insert(late_all.end(), st.late.begin(), st.late.end());
            generator_ok = generator_ok && st.late_p99 <= kMaxGenLateS;
        }
        const double p50 = st.p50, p99 = st.p99, achieved = st.achieved;
        const bool pass = st.pass;
        if (ri == 0) {
            base_p50 = p50;
            base_p99 = p99;
        }
        all_passed = all_passed && pass;
        if (all_passed)
            best_rate = achieved;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "p50 %.3f ms, p99 %.3f ms, %zu requests, achieved "
                      "%.0f rows/s, generator late p99 %.3f ms, %s",
                      p50 * 1e3, p99 * 1e3, rung.count, achieved,
                      st.late_p99 * 1e3,
                      pass ? "meets limit"
                           : (rung.aborted ? "backlog grew, stopped"
                                           : "misses limit"));
        result.note("rung " + std::to_string(static_cast<long>(rung.rate)) +
                        " rows/s",
                    buf);
    }
    if (!generator_ok)
        result.fail("invalid run: the request generator fell behind its "
                    "schedule (lateness p99 above " +
                    std::to_string(kMaxGenLateS * 1e3) + " ms)");

    result.note("reply_p50_ms", std::to_string(base_p50 * 1e3));
    result.note("reply_p99_ms", std::to_string(base_p99 * 1e3));
    result.note("max_rate_rows_s", std::to_string(best_rate));
    result.note("capacity_rows_s", std::to_string(capacity));
    if (!rec.enabled()) {
        result.metrics["job_s"] = base_p50;
        result.metrics["throughput_per_s"] = capacity;
        rec.end(root);
        return result;
    }

    measureModelLayer(path, *reader, pool, 1, 20000, result, rec, root);
    auto &m = result.metrics;
    {
        const ScopedSpan span(rec, "model.assessWorkload", "model", root);
        model::Projection half;
        const std::size_t n = kReloadEvery / 2;
        for (std::size_t i = 0; i < n; ++i) {
            half.assignment.push_back(
                pool.oracle.assignment[i % pool.text.size()]);
            half.dist2.push_back(pool.oracle.dist2[i % pool.text.size()]);
        }
        std::vector<double> t;
        for (int rep = 0; rep < 21; ++rep) {
            const Clock::time_point t0 = Clock::now();
            const auto a = reader->assessWorkload(half);
            t.push_back(secondsSince(t0));
            if (a.rows != n)
                result.fail("assessWorkload row count");
        }
        m["model.assess_ms"] = median(t) * 1e3;
    }
    {
        const ScopedSpan span(rec, "model.LiveModel::load", "model", root);
        model::LiveModel live;
        std::vector<double> t;
        for (int rep = 0; rep < 9; ++rep) {
            const Clock::time_point t0 = Clock::now();
            live.load(path, {model::OpenMode::Mmap});
            t.push_back(secondsSince(t0));
        }
        m["model.live_load_ms"] = median(t) * 1e3;
    }
    rec.end(root);
    m["serve.write_blocked_s"] = client.write_blocked_s;
    m["serve.reply_wait_s"] = client.reply_wait_s;
    m["serve.bytes_in"] = static_cast<double>(client.bytes_in);
    m["serve.bytes_out"] = static_cast<double>(client.replies.size());
    m["serve.gen_late_p99_ms"] = percentile(late_all, 0.99) * 1e3;
    m["serve.reply_p99_ms"] = base_p99 * 1e3;
    m["serve.max_rate_rows_s"] = best_rate;
    m["traced_wall_s"] = secondsSince(traced_start);
    m["unattributed_s"] = rec.unattributed(root);
    return result;
}

} // namespace e2e
