#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.hh"

namespace e2e {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now())
{}

int
SpanRecorder::begin(std::string name, std::string layer, int parent,
                    unsigned tid)
{
    if (!enabled_)
        return -1;
    const double t = at(Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), std::move(layer), t, t, parent, tid});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanRecorder::end(int id)
{
    if (!enabled_ || id < 0)
        return;
    const double t = at(Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

int
SpanRecorder::add(std::string name, std::string layer, int parent,
                  Clock::time_point start, Clock::time_point end,
                  unsigned tid)
{
    if (!enabled_)
        return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), std::move(layer), at(start), at(end),
                      parent, tid});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::vector<int>>
SpanRecorder::childrenLocked() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
    return children;
}

namespace {

/** Length of the union of [start, end) intervals clipped to [lo, hi). */
double
coveredLength(std::vector<std::pair<double, double>> iv, double lo,
              double hi)
{
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a)
            continue;
        if (a > cur_hi) {
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    if (cur_hi > cur_lo)
        covered += cur_hi - cur_lo;
    return covered;
}

} // namespace

std::map<std::string, double>
SpanRecorder::selfTimeByLayer() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto children = childrenLocked();
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::vector<std::pair<double, double>> iv;
        for (int c : children[i])
            iv.emplace_back(spans_[static_cast<std::size_t>(c)].start,
                            spans_[static_cast<std::size_t>(c)].end);
        self[s.layer] +=
            (s.end - s.start) - coveredLength(std::move(iv), s.start, s.end);
    }
    return self;
}

double
SpanRecorder::unattributed(int root) const
{
    if (root < 0)
        return 0.0;
    const std::lock_guard<std::mutex> lock(mutex_);
    const Span &r = spans_[static_cast<std::size_t>(root)];
    std::vector<std::pair<double, double>> iv;
    for (const Span &s : spans_)
        if (s.parent == root)
            iv.emplace_back(s.start, s.end);
    return (r.end - r.start) - coveredLength(std::move(iv), r.start, r.end);
}

namespace {

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    out.push_back('"');
    return out;
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
                 "\"process_name\",\"args\":{\"name\":%s}}",
                 jsonString("e2ebench " + run_id_).c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":%s,"
                     "\"cat\":%s,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"run\":%s,\"span\":%zu,\"parent\":%d}}",
                     s.tid, jsonString(s.name).c_str(),
                     jsonString(s.layer).c_str(), s.start * 1e6,
                     (s.end - s.start) * 1e6, jsonString(run_id_).c_str(),
                     i, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
characterizationDigest(const mica::core::CharacterizationResult &chars)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const std::string &id : chars.benchmark_ids)
        h = fnv1a(id.data(), id.size() + 1, h); // include the NUL
    for (const auto &rec : chars.intervals) {
        h = fnv1a(&rec.benchmark, sizeof rec.benchmark, h);
        h = fnv1a(&rec.input, sizeof rec.input, h);
        h = fnv1a(rec.values.data(), sizeof(double) * rec.values.size(), h);
    }
    return h;
}

double
selfPeakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
RowRng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
RowRng::uniform()
{
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
}

double
RowRng::gaussian()
{
    if (have_spare_) {
        have_spare_ = false;
        return spare_;
    }
    const double r = std::sqrt(-2.0 * std::log(uniform()));
    const double theta = 2.0 * 3.14159265358979323846 * uniform();
    spare_ = r * std::sin(theta);
    have_spare_ = true;
    return r * std::cos(theta);
}

} // namespace e2e
