// Small helpers shared by the benchmark's translation units: the one clock
// every timestamp is taken on, absolute sleeps, per-thread CPU time,
// percentiles that count failures as +infinity, and a minimal JSON writer.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace bench {

/// CLOCK_MONOTONIC in nanoseconds. Every benchmark timestamp (due times,
/// send and reply times, execute spans) is taken on this clock, so times
/// from different threads compare directly.
std::int64_t mono_ns();

/// Sleeps until the absolute CLOCK_MONOTONIC time `t_ns` (clock_nanosleep
/// with TIMER_ABSTIME: no drift accumulates across a schedule).
void sleep_until_ns(std::int64_t t_ns);
void sleep_for_s(double seconds);

/// Kernel thread id of the calling thread.
int current_tid();

/// CPU time consumed so far by thread `tid` of this process, in ns
/// (/proc/self/task/<tid>/schedstat). Returns -1 when the thread is gone.
std::int64_t thread_cpu_ns(int tid);

/// CPU time (user + system) of the whole process, in ns.
std::int64_t process_cpu_ns();

/// Peak resident set size of the process since the last reset_peak_rss(),
/// in MiB (VmHWM).
double peak_rss_mb();
/// Returns freed heap memory to the kernel and restarts the peak-RSS mark,
/// so the next peak_rss_mb() covers only what ran in between.
void reset_peak_rss();

/// Marks a failed request in a latency sample vector.
constexpr std::int64_t kFailedSample = std::numeric_limits<std::int64_t>::max();

/// Nearest-rank percentile (q in (0, 1]) of `samples`, in the samples' unit.
/// A kFailedSample that lands on the rank makes the result +infinity: a
/// failed request misses every latency limit. Returns NaN when empty.
double percentile(std::vector<std::int64_t> samples, double q);

double median(std::vector<double> v);
/// Nearest-rank quantile (q in (0, 1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ULL);

/// Appends `v` to `out` as a JSON number with every significant digit
/// (shortest round-trip form). Infinity, which JSON cannot carry, is
/// written as 1e300 so a failed percentile still reads as "worse than
/// anything measured".
void json_number(std::string& out, double v);
/// Appends `s` as a JSON string literal.
void json_string(std::string& out, const std::string& s);

}  // namespace bench
