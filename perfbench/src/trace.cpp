#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* layer, std::uint64_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  {
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    span_.id = tracer_.next_id_++;
  }
  span_.parent =
      parent != 0 ? parent : (open_spans.empty() ? 0 : open_spans.back());
  span_.layer = layer;
  open_spans.push_back(span_.id);
  span_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - tracer_.epoch_)
                       .count();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  span_.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - tracer_.epoch_)
                     .count();
  open_spans.pop_back();
  tracer_.record(span_);
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

double Tracer::total_s(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (layer == s.layer) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t Tracer::count(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const Span& s : spans_) n += layer == s.layer ? 1 : 0;
  return n;
}

std::map<std::string, double> Tracer::self_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Children's intervals grouped by parent id.
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (const auto& [a0, b0] : iv) {
        const std::int64_t a = std::max(a0, s.start_ns);
        const std::int64_t b = std::min(b0, s.end_ns);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << s.layer << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
