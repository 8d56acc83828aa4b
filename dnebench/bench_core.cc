#include "bench_core.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "runtime/wire.h"

namespace dnebench {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double> Percentile(std::vector<double> v, double p) {
  const std::size_t n = v.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  // The epsilon keeps p = k/n exact under floating-point rounding.
  const auto k =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  if (k == 0 || n - k < kMinTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   v.end());
  return v[k - 1];
}

double HighestTailPercentile(std::size_t n, double p) {
  if (n < kMinTailSamples + 1) return 0.0;
  const double highest =
      static_cast<double>(n - kMinTailSamples) / static_cast<double>(n);
  return std::min(p, highest);
}

double EdgesPerSecond(std::uint64_t edges, double wall_seconds) {
  return static_cast<double>(edges) / wall_seconds;
}

double ScannedEdgesPerSecond(std::uint64_t supersteps, std::uint64_t edges,
                             double wall_seconds) {
  return static_cast<double>(supersteps) * static_cast<double>(edges) /
         wall_seconds;
}

double CpuNsPerEdge(double cpu_seconds, std::uint64_t edges) {
  return cpu_seconds * 1e9 / static_cast<double>(edges);
}

std::uint64_t AssignmentFingerprint(const std::vector<dne::PartitionId>& a) {
  return dne::wire::Fnv1a64(a.data(), a.size() * sizeof(dne::PartitionId));
}

std::string CheckAssignment(const std::vector<dne::PartitionId>& a,
                            std::uint64_t num_edges,
                            std::uint32_t num_partitions) {
  if (a.size() != num_edges) {
    return "assignment covers " + std::to_string(a.size()) + " edges, graph has " +
           std::to_string(num_edges);
  }
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (a[e] >= num_partitions) {
      return "edge " + std::to_string(e) + " assigned to partition " +
             std::to_string(a[e]) + ", outside [0, " +
             std::to_string(num_partitions) + ")";
    }
  }
  return "";
}

std::string CheckFingerprint(const std::string& what, std::uint64_t got,
                             std::uint64_t want) {
  if (got == want) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s fingerprint %016llx != reference %016llx",
                what.c_str(), static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  return buf;
}

std::string CheckRfBound(double rf, double bound) {
  if (rf > 0.0 && rf <= bound) return "";
  return "replication factor " + Num(rf) + " outside (0, Theorem-1 bound " +
         Num(bound) + "]";
}

std::string CheckEqualCount(const std::string& what, std::uint64_t a,
                            std::uint64_t b) {
  if (a == b) return "";
  return what + " differs: " + std::to_string(a) + " vs " + std::to_string(b);
}

// ---- Outcome encoding -----------------------------------------------------------

std::string EncodeOutcome(const OpOutcome& o) {
  ByteWriter w;
  w.PutString(o.status);
  for (double d : {o.wall_seconds, o.cpu_seconds, o.distribute_s, o.phase_a_s,
                   o.phase_b_s, o.phase_c_s, o.phase_d_s,
                   o.boundary_imbalance}) {
    w.Put(d);
  }
  for (std::uint64_t u :
       {o.vmhwm_bytes, o.supersteps, o.one_hop_edges, o.two_hop_edges,
        o.random_restarts, o.comm_bytes, o.wire_bytes, o.wire_frames,
        o.rank_peak_bytes_max, o.process_rss_max}) {
    w.Put(u);
  }
  w.PutVec(o.assignment);
  w.Put<std::uint64_t>(o.spans.size());
  for (const Span& s : o.spans) {
    w.Put(s.id);
    w.Put(s.parent);
    w.Put(s.group);
    w.PutString(s.name);
    w.Put(s.start_ns);
    w.Put(s.end_ns);
    w.Put(s.pid);
  }
  return std::move(w.data());
}

bool DecodeOutcome(const std::string& payload, OpOutcome* o) {
  ByteReader r(payload);
  if (!r.GetString(&o->status)) return false;
  for (double* d : {&o->wall_seconds, &o->cpu_seconds, &o->distribute_s,
                    &o->phase_a_s, &o->phase_b_s, &o->phase_c_s,
                    &o->phase_d_s, &o->boundary_imbalance}) {
    if (!r.Get(d)) return false;
  }
  for (std::uint64_t* u :
       {&o->vmhwm_bytes, &o->supersteps, &o->one_hop_edges,
        &o->two_hop_edges, &o->random_restarts, &o->comm_bytes,
        &o->wire_bytes, &o->wire_frames, &o->rank_peak_bytes_max,
        &o->process_rss_max}) {
    if (!r.Get(u)) return false;
  }
  if (!r.GetVec(&o->assignment)) return false;
  std::uint64_t nspans = 0;
  if (!r.Get(&nspans)) return false;
  o->spans.clear();
  for (std::uint64_t i = 0; i < nspans; ++i) {
    Span s;
    if (!r.Get(&s.id) || !r.Get(&s.parent) || !r.Get(&s.group) ||
        !r.GetString(&s.name) || !r.Get(&s.start_ns) || !r.Get(&s.end_ns) ||
        !r.Get(&s.pid)) {
      return false;
    }
    o->spans.push_back(std::move(s));
  }
  return r.done();
}

// ---- Fork-per-op ----------------------------------------------------------------

namespace {

constexpr std::uint64_t kFrameTrailer = 0x444e4542454e4348ULL;  // "DNEBENCH"

bool WriteAll(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// Reads what is available; false once the pipe reports EOF or an error.
bool DrainAvailable(int fd, std::string* buf) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t k = read(fd, chunk, sizeof(chunk));
    if (k > 0) {
      buf->append(chunk, static_cast<std::size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EOF or error
  }
}

/// Reaps the descendants of this (subreaper) process: waits up to
/// `wait_seconds` for all of them, or only collects exited ones when 0.
void ReapDescendants(double wait_seconds) {
  const std::int64_t deadline =
      MonoNs() + static_cast<std::int64_t>(wait_seconds * 1e9);
  for (;;) {
    const pid_t w = waitpid(-1, nullptr, WNOHANG);
    if (w > 0 || (w < 0 && errno == EINTR)) continue;
    if (w < 0 || MonoNs() >= deadline) return;  // ECHILD: none left
    timespec ts{0, 5000000};
    nanosleep(&ts, nullptr);
  }
}

}  // namespace

namespace {
/// Process group of the op child currently running (0 = none), for the
/// termination handler.
volatile sig_atomic_t g_op_group = 0;

void OnTerminate(int sig) {
  const pid_t group = g_op_group;
  if (group > 0) kill(-group, SIGKILL);
  signal(sig, SIG_DFL);
  raise(sig);
}
}  // namespace

void SetupChildSupervision() {
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  signal(SIGTERM, OnTerminate);
  signal(SIGINT, OnTerminate);
}

ForkResult RunForked(const std::function<std::string()>& body,
                     double timeout_seconds) {
  ForkResult out;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    out.error = "pipe failed";
    return out;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out.error = "fork failed";
    return out;
  }
  if (pid == 0) {
    setpgid(0, 0);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    std::string payload;
    try {
      payload = body();
    } catch (...) {
      _exit(3);
    }
    const std::uint64_t len = payload.size();
    const bool ok =
        WriteAll(fds[1], reinterpret_cast<const char*>(&len), sizeof(len)) &&
        WriteAll(fds[1], payload.data(), payload.size()) &&
        WriteAll(fds[1], reinterpret_cast<const char*>(&kFrameTrailer),
                 sizeof(kFrameTrailer));
    _exit(ok ? 0 : 4);
  }
  setpgid(pid, pid);  // either side may win the race; both set the same group
  g_op_group = pid;
  close(fds[1]);
  fcntl(fds[0], F_SETFL, fcntl(fds[0], F_GETFL) | O_NONBLOCK);

  const std::int64_t deadline =
      MonoNs() + static_cast<std::int64_t>(timeout_seconds * 1e9);
  std::string buf;
  int wstatus = 0;
  bool reaped = false;
  bool timed_out = false;
  bool eof = false;
  while (!reaped) {
    if (!eof) {
      pollfd p{fds[0], POLLIN, 0};
      poll(&p, 1, 20);
      eof = !DrainAvailable(fds[0], &buf);
    } else {
      timespec ts{0, 5000000};
      nanosleep(&ts, nullptr);
    }
    const pid_t w = waitpid(pid, &wstatus, WNOHANG);
    if (w == pid) {
      reaped = true;
      // The child wrote its whole frame before exiting; what is left sits in
      // the pipe buffer even if a descendant still holds the write end.
      if (!eof) DrainAvailable(fds[0], &buf);
    } else if (MonoNs() > deadline) {
      timed_out = true;
      kill(-pid, SIGKILL);
      kill(pid, SIGKILL);
      waitpid(pid, &wstatus, 0);
      reaped = true;
    }
  }
  close(fds[0]);
  g_op_group = 0;
  if (timed_out || !(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)) {
    // Kill and reap any descendants the child left behind.
    kill(-pid, SIGKILL);
    ReapDescendants(10.0);
  } else {
    ReapDescendants(0.0);
  }
  if (timed_out) {
    out.error = "op child exceeded " + Num(timeout_seconds) + " s and was killed";
    return out;
  }
  if (WIFSIGNALED(wstatus)) {
    out.error = "op child killed by signal " + std::to_string(WTERMSIG(wstatus));
    return out;
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    out.error = "op child exited with code " +
                std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1);
    return out;
  }
  std::uint64_t len = 0;
  std::uint64_t trailer = 0;
  if (buf.size() < 2 * sizeof(std::uint64_t)) {
    out.error = "op child exited without a result";
    return out;
  }
  std::memcpy(&len, buf.data(), sizeof(len));
  if (len != buf.size() - 2 * sizeof(std::uint64_t)) {
    out.error = "op child result truncated";
    return out;
  }
  std::memcpy(&trailer, buf.data() + buf.size() - sizeof(trailer),
              sizeof(trailer));
  if (trailer != kFrameTrailer) {
    out.error = "op child result corrupt";
    return out;
  }
  out.payload = buf.substr(sizeof(len), len);
  out.ok = true;
  return out;
}

// ---- Process measurements -------------------------------------------------------

namespace {
double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

double ProcessCpuSeconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return TvSeconds(self.ru_utime) + TvSeconds(self.ru_stime) +
         TvSeconds(children.ru_utime) + TvSeconds(children.ru_stime);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t VmHwmBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  }
  return 0;
}

bool ResetVmHwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double v = 0.0;
  in >> v;
  return v;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        std::string escaped;
        for (char c : model) {
          if (c != '"' && c != '\\') escaped += c;
        }
        return escaped;
      }
    }
  }
  return "unknown";
}

bool CpuHasAvx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

// ---- Metrics --------------------------------------------------------------------

const std::vector<MetricDef>& MetricCatalogue() {
  static const std::vector<MetricDef> kCatalogue = {
      {"edges_per_s", "1/s", MetricKind::kEndToEnd},
      {"cpu_ns_per_edge", "ns", MetricKind::kEndToEnd},
      {"replication_factor", "ratio", MetricKind::kEndToEnd},
      {"edge_balance", "ratio", MetricKind::kEndToEnd},
      {"peak_rss_bytes", "bytes", MetricKind::kEndToEnd},
      {"query_p50_ms", "ms", MetricKind::kEndToEnd},
      {"query_p90_ms", "ms", MetricKind::kEndToEnd},
      {"setup_s", "s", MetricKind::kEndToEnd},

      {"gen.generate_s", "s", MetricKind::kPerLayer},
      {"graph.save_s", "s", MetricKind::kPerLayer},
      {"graph.load_s", "s", MetricKind::kPerLayer},
      {"graph.build_s", "s", MetricKind::kPerLayer},
      {"dne.distribute_s", "s", MetricKind::kPerLayer},
      {"dne.phase_a_s", "s", MetricKind::kPerLayer},
      {"dne.phase_b_s", "s", MetricKind::kPerLayer},
      {"dne.phase_c_s", "s", MetricKind::kPerLayer},
      {"dne.phase_d_s", "s", MetricKind::kPerLayer},
      {"dne.supersteps", "count", MetricKind::kPerLayer},
      {"dne.two_hop_share", "ratio", MetricKind::kPerLayer},
      {"dne.random_restarts", "count", MetricKind::kPerLayer},
      {"dne.boundary_imbalance", "ratio", MetricKind::kPerLayer},
      {"dne.rank_peak_bytes_max", "bytes", MetricKind::kPerLayer},
      {"kernel.for_each_common_ns_per_edge", "ns", MetricKind::kPerLayer},
      {"kernel.common_ids", "count", MetricKind::kPerLayer},
      {"kernel.boundary_queue_ns_per_vertex", "ns", MetricKind::kPerLayer},
      {"mesh.payload_bytes", "bytes", MetricKind::kPerLayer},
      {"mesh.wire_bytes", "bytes", MetricKind::kPerLayer},
      {"mesh.wire_frames", "count", MetricKind::kPerLayer},
      {"mesh.frames_per_superstep", "count", MetricKind::kPerLayer},
      {"mesh.cpu_per_wall", "ratio", MetricKind::kPerLayer},
      {"mesh.coordinator_rss_bytes", "bytes", MetricKind::kPerLayer},
      {"serve.shard_build_s", "s", MetricKind::kPerLayer},
      {"serve.backend_ms", "ms", MetricKind::kPerLayer},
      {"serve.queue_ms", "ms", MetricKind::kPerLayer},
      {"serve.pagerank_ms", "ms", MetricKind::kPerLayer},
      {"serve.sssp_ms", "ms", MetricKind::kPerLayer},
      {"serve.wcc_ms", "ms", MetricKind::kPerLayer},
      {"serve.supersteps_per_query", "count", MetricKind::kPerLayer},
      {"serve.sync_bytes_per_query", "bytes", MetricKind::kPerLayer},
      {"gen.self_s", "s", MetricKind::kPerLayer},
      {"graph.self_s", "s", MetricKind::kPerLayer},
      {"dne.self_s", "s", MetricKind::kPerLayer},
      {"kernel.self_s", "s", MetricKind::kPerLayer},
      {"serve.self_s", "s", MetricKind::kPerLayer},
      {"bench.self_s", "s", MetricKind::kPerLayer},
      {"trace.spans", "count", MetricKind::kPerLayer},
      {"trace.overhead_ms", "ms", MetricKind::kPerLayer},
  };
  return kCatalogue;
}

void MetricSet::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

bool MetricSet::Has(const std::string& name) const {
  for (const auto& kv : values_) {
    if (kv.first == name) return true;
  }
  return false;
}

double MetricSet::Get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return 0.0;
}

std::string MetricSet::CheckComplete(MetricKind kind) const {
  std::string problems;
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind == kind && !Has(d.name)) problems += " missing:" + std::string(d.name);
  }
  for (const auto& kv : values_) {
    bool known = false;
    for (const MetricDef& d : MetricCatalogue()) known |= kv.first == d.name;
    if (!known) problems += " unknown:" + kv.first;
    if (!std::isfinite(kv.second)) problems += " nonfinite:" + kv.first;
  }
  return problems;
}

std::string MetricSet::ResultJson(MetricKind kind, bool correct,
                                  std::uint64_t attempted,
                                  std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind != kind || !Has(d.name)) continue;
    out += first ? "" : ", ";
    first = false;
    out += "\"";
    out += d.name;
    out += "\": {\"value\": ";
    out += Num(Get(d.name));
    out += ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace dnebench
