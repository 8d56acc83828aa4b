#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <unordered_map>
#include <utility>

namespace dnebench {

std::int64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

namespace {
/// Layer of a span name: the text before the first '.'.
std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}
}  // namespace

std::uint64_t Tracer::Begin(const std::string& name, std::uint64_t group) {
  if (!enabled_) return 0;
  Span s;
  s.id = next_id_++;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.group = group;
  s.name = name;
  s.pid = static_cast<std::int32_t>(getpid());
  s.start_ns = MonoNs();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = MonoNs();
  for (std::size_t k = open_.size(); k-- > 0;) {
    if (spans_[open_[k]].id == id) {
      spans_[open_[k]].end_ns = now;
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
}

std::uint64_t Tracer::Record(const std::string& name, std::uint64_t group,
                             std::uint64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!enabled_) return 0;
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.group = group;
  s.name = name;
  s.pid = static_cast<std::int32_t>(getpid());
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::Adopt(const std::vector<Span>& spans, std::uint64_t parent) {
  if (!enabled_) return;
  std::unordered_map<std::uint64_t, std::uint64_t> remap;
  for (const Span& s : spans) remap[s.id] = next_id_++;
  for (const Span& s : spans) {
    Span copy = s;
    copy.id = remap[s.id];
    auto it = remap.find(s.parent);
    copy.parent = it != remap.end() ? it->second : parent;
    spans_.push_back(std::move(copy));
  }
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      bool have = false;
      std::int64_t lo = 0, hi = 0;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (have && a <= hi) {
          hi = std::max(hi, b);
          continue;
        }
        if (have) covered += hi - lo;
        lo = a;
        hi = b;
        have = true;
      }
      if (have) covered += hi - lo;
    }
    self[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"group\": "
                 "%llu}}",
                 i == 0 ? "" : ",", s.name.c_str(), LayerOf(s.name).c_str(),
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.pid,
                 s.pid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group));
  }
  std::fprintf(f, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace dnebench
