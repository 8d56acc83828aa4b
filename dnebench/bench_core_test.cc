// Unit tests of the benchmark's own building blocks: statistics, metric
// normalisations, the fork-per-op result channel (with injected crashes),
// the correctness gates (with injected wrong fingerprints and out-of-range
// assignments), span self time and the result line. Self-contained: exits
// non-zero when any check fails. run.py --self-test builds and runs it.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_core.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

using namespace dnebench;

void TestMedian() {
  CHECK(Median({3.0}) == 3.0);
  CHECK(Median({5.0, 1.0, 3.0}) == 3.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestPercentileRefusesThinTail() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // n = 100, p90: k = 90, 10 samples beyond.
  CHECK(Percentile(v, 0.9).has_value() && *Percentile(v, 0.9) == 90.0);
  v.pop_back();  // n = 99: k = 90, only 9 beyond
  CHECK(!Percentile(v, 0.9).has_value());
  std::vector<double> twenty(v.begin(), v.begin() + 20);
  CHECK(Percentile(twenty, 0.5).has_value() && *Percentile(twenty, 0.5) == 10.0);
  CHECK(!Percentile(twenty, 0.51).has_value());
  CHECK(!Percentile({}, 0.5).has_value());
  CHECK(!Percentile(twenty, 1.0).has_value());
}

void TestHighestTailPercentile() {
  CHECK(HighestTailPercentile(100, 0.9) == 0.9);
  CHECK(Near(HighestTailPercentile(20, 0.9), 0.5));
  CHECK(HighestTailPercentile(10, 0.9) == 0.0);
  // Whatever it returns must be accepted by Percentile.
  for (std::size_t n = 11; n < 150; ++n) {
    std::vector<double> v(n, 1.0);
    CHECK(Percentile(v, HighestTailPercentile(n, 0.9)).has_value());
  }
}

void TestNormalisations() {
  CHECK(Near(EdgesPerSecond(2'000'000, 0.5), 4e6));
  CHECK(Near(ScannedEdgesPerSecond(30, 1'000'000, 2.0), 1.5e7));
  CHECK(Near(CpuNsPerEdge(1.5, 3'000'000), 500.0));
}

void TestGates() {
  std::vector<dne::PartitionId> a = {0, 1, 2, 3, 15, 0};
  CHECK(CheckAssignment(a, 6, 16).empty());
  CHECK(!CheckAssignment(a, 7, 16).empty());  // an edge left unassigned
  std::vector<dne::PartitionId> bad = a;
  bad[4] = 16;  // out of [0, 16)
  CHECK(!CheckAssignment(bad, 6, 16).empty());
  bad[4] = dne::kNoPartition;
  CHECK(!CheckAssignment(bad, 6, 16).empty());

  const std::uint64_t fp = AssignmentFingerprint(a);
  CHECK(CheckFingerprint("op", AssignmentFingerprint(a), fp).empty());
  std::vector<dne::PartitionId> moved = a;
  moved[2] = 3;  // one edge in another partition
  CHECK(!CheckFingerprint("op", AssignmentFingerprint(moved), fp).empty());
  CHECK(!CheckFingerprint("op", fp ^ 1, fp).empty());

  CHECK(CheckRfBound(2.3, 8.5).empty());
  CHECK(!CheckRfBound(9.0, 8.5).empty());
  CHECK(!CheckRfBound(0.0, 8.5).empty());
  CHECK(CheckEqualCount("x", 7, 7).empty());
  CHECK(!CheckEqualCount("x", 7, 8).empty());
}

OpOutcome SampleOutcome() {
  OpOutcome o;
  o.wall_seconds = 0.9;
  o.cpu_seconds = 1.7;
  o.vmhwm_bytes = 123456789;
  o.supersteps = 42;
  o.wire_bytes = 1000;
  o.wire_frames = 10;
  o.phase_c_s = 0.25;
  o.assignment = {1, 2, 3};
  Span s;
  s.id = 1;
  s.name = "dne.partition";
  s.start_ns = 10;
  s.end_ns = 20;
  o.spans.push_back(s);
  return o;
}

void TestOutcomeRoundTrip() {
  const std::string bytes = EncodeOutcome(SampleOutcome());
  OpOutcome back;
  CHECK(DecodeOutcome(bytes, &back));
  CHECK(back.supersteps == 42 && back.vmhwm_bytes == 123456789);
  CHECK(back.phase_c_s == 0.25 && back.cpu_seconds == 1.7);
  CHECK(back.assignment.size() == 3 && back.assignment[2] == 3);
  CHECK(back.spans.size() == 1 && back.spans[0].name == "dne.partition");
  OpOutcome cut;
  CHECK(!DecodeOutcome(bytes.substr(0, bytes.size() - 3), &cut));
}

void TestForkChannel() {
  const ForkResult ok = RunForked([] { return EncodeOutcome(SampleOutcome()); }, 10.0);
  CHECK(ok.ok);
  OpOutcome back;
  CHECK(DecodeOutcome(ok.payload, &back) && back.supersteps == 42);

  // A large payload exceeds the pipe buffer; the parent must keep reading.
  const ForkResult big = RunForked([] { return std::string(8 << 20, 'x'); }, 10.0);
  CHECK(big.ok && big.payload.size() == (8u << 20));

  const ForkResult crash = RunForked(
      []() -> std::string {
        std::abort();
      },
      10.0);
  CHECK(!crash.ok && crash.error.find("signal") != std::string::npos);

  const ForkResult silent = RunForked(
      []() -> std::string { _exit(0); }, 10.0);
  CHECK(!silent.ok && silent.error.find("without a result") != std::string::npos);

  const ForkResult code = RunForked([]() -> std::string { _exit(7); }, 10.0);
  CHECK(!code.ok && code.error.find("code 7") != std::string::npos);

  const std::int64_t t0 = MonoNs();
  const ForkResult hang = RunForked(
      []() -> std::string {
        for (;;) pause();
      },
      0.3);
  CHECK(!hang.ok && hang.error.find("killed") != std::string::npos);
  CHECK(MonoNs() - t0 < 5'000'000'000LL);

  // A descendant that outlives the child and still holds the pipe's write
  // end must not delay the result.
  const std::int64_t t1 = MonoNs();
  const ForkResult orphan = RunForked(
      []() -> std::string {
        if (fork() == 0) {
          sleep(2);
          _exit(0);
        }
        return "done";
      },
      10.0);
  CHECK(orphan.ok && orphan.payload == "done");
  CHECK(MonoNs() - t1 < 1'500'000'000LL);
  while (waitpid(-1, nullptr, 0) > 0) {
  }
}

void TestSelfTime() {
  Tracer tr(true);
  const std::uint64_t root = tr.Record("bench.op", 1, 0, 0, 10'000'000'000LL);
  tr.Record("dne.partition", 1, root, 2'000'000'000LL, 4'000'000'000LL);
  tr.Record("dne.partition", 1, root, 3'000'000'000LL, 6'000'000'000LL);
  tr.Record("kernel.x", 1, root, 8'000'000'000LL, 9'000'000'000LL);
  const auto self = tr.SelfSecondsByLayer();
  CHECK(Near(self.at("bench"), 5.0));
  CHECK(Near(self.at("dne"), 5.0));
  CHECK(Near(self.at("kernel"), 1.0));

  Tracer off(false);
  CHECK(off.Begin("x.y", 0) == 0 && off.spans().empty());
}

void TestResultLine() {
  MetricSet m;
  for (const MetricDef& d : MetricCatalogue()) {
    if (d.kind == MetricKind::kEndToEnd) m.Set(d.name, 1.5);
  }
  CHECK(m.CheckComplete(MetricKind::kEndToEnd).empty());
  CHECK(!m.CheckComplete(MetricKind::kPerLayer).empty());
  const std::string line = m.ResultJson(MetricKind::kEndToEnd, true, 20, 0);
  CHECK(line.rfind("{\"correct\": true, \"attempted\": 20, \"failed\": 0, "
                   "\"metrics\": {\"edges_per_s\": {\"value\": 1.5, \"unit\": "
                   "\"1/s\"}",
                   0) == 0);
  m.Set("bogus", 1.0);
  CHECK(m.CheckComplete(MetricKind::kEndToEnd).find("unknown:bogus") !=
        std::string::npos);
  MetricSet nan;
  nan.Set("setup_s", std::nan(""));
  CHECK(nan.CheckComplete(MetricKind::kEndToEnd).find("nonfinite:setup_s") !=
        std::string::npos);
}

}  // namespace

int main() {
  SetupChildSupervision();
  TestMedian();
  TestPercentileRefusesThinTail();
  TestHighestTailPercentile();
  TestNormalisations();
  TestGates();
  TestOutcomeRoundTrip();
  TestForkChannel();
  TestSelfTime();
  TestResultLine();
  if (g_failures != 0) {
    std::fprintf(stderr, "dnebench_test: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("dnebench_test: all checks passed\n");
  return 0;
}
