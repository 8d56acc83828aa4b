// Building blocks of the DNE benchmark that its unit tests exercise
// directly: statistics, the metric normalisations, the correctness gates,
// the fork-per-op result channel, the metric catalogue and the host record.
#ifndef DNEBENCH_BENCH_CORE_H_
#define DNEBENCH_BENCH_CORE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace.h"

namespace dnebench {

// ---- Statistics --------------------------------------------------------------

/// Samples a percentile needs beyond it before it is reported.
inline constexpr std::size_t kMinTailSamples = 10;

/// Median (mean of the two middle values for an even count). Requires a
/// non-empty sample.
double Median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 1): the k-th smallest sample with
/// k = ceil(p * n). Refused (nullopt) when fewer than kMinTailSamples
/// samples lie beyond it, i.e. n - k < kMinTailSamples.
std::optional<double> Percentile(std::vector<double> v, double p);

/// The largest percentile <= p that Percentile accepts for n samples, or 0
/// when there is none (n < kMinTailSamples + 1).
double HighestTailPercentile(std::size_t n, double p);

// ---- Normalisations ----------------------------------------------------------

/// Edges processed per second of wall time.
double EdgesPerSecond(std::uint64_t edges, double wall_seconds);

/// Serving throughput: every superstep scans all shard edges, so the work of
/// a query loop is supersteps * |E|.
double ScannedEdgesPerSecond(std::uint64_t supersteps, std::uint64_t edges,
                             double wall_seconds);

/// CPU nanoseconds per edge of the same denominator.
double CpuNsPerEdge(double cpu_seconds, std::uint64_t edges);

// ---- Correctness gates ---------------------------------------------------------
// Each returns the empty string on pass and a one-line reason on failure.

/// FNV-1a 64 over the assignment's bytes.
std::uint64_t AssignmentFingerprint(const std::vector<dne::PartitionId>& a);

/// Every one of `num_edges` edges is assigned to a partition in [0, P).
std::string CheckAssignment(const std::vector<dne::PartitionId>& a,
                            std::uint64_t num_edges,
                            std::uint32_t num_partitions);

std::string CheckFingerprint(const std::string& what, std::uint64_t got,
                             std::uint64_t want);

/// RF must not exceed Theorem 1's bound (metrics/theory.h).
std::string CheckRfBound(double rf, double bound);

/// An exact count that two runs of the same work must agree on.
std::string CheckEqualCount(const std::string& what, std::uint64_t a,
                            std::uint64_t b);

// ---- Byte channel --------------------------------------------------------------

class ByteWriter {
 public:
  template <typename T>
  void Put(const T& v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    data_.append(p, sizeof(T));
  }
  template <typename T>
  void PutVec(const std::vector<T>& v) {
    Put<std::uint64_t>(v.size());
    data_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void PutString(const std::string& s) {
    Put<std::uint64_t>(s.size());
    data_.append(s);
  }
  std::string& data() { return data_; }

 private:
  std::string data_;
};

/// Bounds-checked reader over a ByteWriter buffer; every Get fails (returns
/// false) instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data) {}
  template <typename T>
  bool Get(T* v) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  template <typename T>
  bool GetVec(std::vector<T>* v) {
    std::uint64_t n = 0;
    if (!Get(&n) || n > (data_.size() - pos_) / sizeof(T)) return false;
    v->resize(n);
    std::memcpy(v->data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }
  bool GetString(std::string* s) {
    std::uint64_t n = 0;
    if (!Get(&n) || n > data_.size() - pos_) return false;
    s->assign(data_, pos_, n);
    pos_ += n;
    return true;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

// ---- Fork-per-op ---------------------------------------------------------------

/// What one forked op child reports back.
struct OpOutcome {
  std::string status;  ///< empty = the library call returned OK
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< self + reaped children, around the call
  std::uint64_t vmhwm_bytes = 0;  ///< the child's peak RSS after the call
  // DneStats of the call.
  std::uint64_t supersteps = 0;
  std::uint64_t one_hop_edges = 0;
  std::uint64_t two_hop_edges = 0;
  std::uint64_t random_restarts = 0;
  std::uint64_t comm_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t rank_peak_bytes_max = 0;
  std::uint64_t process_rss_max = 0;
  double distribute_s = 0.0;
  double phase_a_s = 0.0;
  double phase_b_s = 0.0;
  double phase_c_s = 0.0;
  double phase_d_s = 0.0;
  double boundary_imbalance = 0.0;
  std::vector<dne::PartitionId> assignment;
  std::vector<Span> spans;
};

std::string EncodeOutcome(const OpOutcome& o);
bool DecodeOutcome(const std::string& payload, OpOutcome* o);

struct ForkResult {
  bool ok = false;
  std::string error;    ///< why the op failed (crash, no result, timeout)
  std::string payload;  ///< the child's result bytes when ok
};

/// Runs `body` in a forked child that is its own process group and returns
/// what it produced. The child writes a length-framed payload to a pipe and
/// exits 0; a child that dies on a signal, exits non-zero, exits without a
/// complete frame or outlives `timeout_seconds` fails the op — its whole
/// process group is killed and reaped, so a failure is never a hang.
/// Call SetupChildSupervision() once first.
ForkResult RunForked(const std::function<std::string()>& body,
                     double timeout_seconds);

/// Makes this process the reaper of its orphaned descendants and makes
/// SIGTERM / SIGINT kill the running op child's process group first.
void SetupChildSupervision();

// ---- Process measurements ------------------------------------------------------

/// User + system CPU of this process and its reaped children.
double ProcessCpuSeconds();
/// CPU time of the calling thread.
double ThreadCpuSeconds();
/// VmHWM (peak RSS) of this process; 0 if unreadable.
std::uint64_t VmHwmBytes();
/// Resets VmHWM to the current RSS (/proc/self/clear_refs "5").
bool ResetVmHwm();

/// Aggregate /proc/stat CPU ticks.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Steal share of the ticks between two readings (0 when none elapsed).
double StealShare(const CpuTicks& a, const CpuTicks& b);
/// 1-minute load average.
double LoadAverage1();
std::string CpuModel();
bool CpuHasAvx2();

// ---- Metric catalogue and result line ------------------------------------------

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark reports, in output order. BENCHMARK.json must
/// list exactly these names and units.
const std::vector<MetricDef>& MetricCatalogue();

/// Collects metric values and renders the final result line.
class MetricSet {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// Empty when the set holds exactly the catalogue's metrics of `kind`,
  /// otherwise the names that are missing or unknown.
  std::string CheckComplete(MetricKind kind) const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} for `kind`.
  std::string ResultJson(MetricKind kind, bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Formats a double with all its significant digits.
std::string Num(double v);

}  // namespace dnebench

#endif  // DNEBENCH_BENCH_CORE_H_
