// In-memory span recorder of the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around calls into
// the library's public functions: each has a name whose first dotted
// component is the layer ("gen.generate" -> layer "gen"), start and end on
// the system-wide monotonic clock (so spans recorded in forked op children
// line up with the parent's), the id of the span that caused it, and the id
// of the op or query it belongs to. Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON.
#ifndef DNEBENCH_TRACE_H_
#define DNEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dnebench {

/// Nanoseconds on CLOCK_MONOTONIC (shared by every process on the host).
std::int64_t MonoNs();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t group = 0;   ///< op / query id shared by all its spans
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t pid = 0;
};

class Tracer {
 public:
  /// A disabled tracer records nothing and Begin/End cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span and returns its id (0 when
  /// disabled).
  std::uint64_t Begin(const std::string& name, std::uint64_t group);
  void End(std::uint64_t id);

  /// Records an already-closed span (e.g. timed on another thread and
  /// handed over after the fact); returns its id (0 when disabled).
  std::uint64_t Record(const std::string& name, std::uint64_t group,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);

  /// Adopts spans recorded elsewhere (a forked child's), giving them fresh
  /// ids; their roots are parented under `parent`.
  void Adopt(const std::vector<Span>& spans, std::uint64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in seconds: each span's duration minus the part of
  /// its interval covered by its children.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes {"traceEvents": [...]} complete ("X") events, times in us.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// RAII span; inert when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::uint64_t group)
      : tracer_(tracer), id_(tracer.Begin(name, group)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace dnebench

#endif  // DNEBENCH_TRACE_H_
