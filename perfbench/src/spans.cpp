#include "spans.hpp"

#include <chrono>
#include <cstring>
#include <fstream>

namespace perfbench {
namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Open spans of the calling thread, innermost last.
thread_local std::vector<long> t_open;

}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

long SpanRecorder::open(const char* name, long job) {
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.job = job;
  span.startNs = nowNs();
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto index = static_cast<long>(spans_.size());
  spans_.push_back(span);
  t_open.push_back(index);
  return index;
}

void SpanRecorder::close(long index) {
  const std::uint64_t end = nowNs();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
}

SpanRecorder::Scope::Scope(const char* name, long job) {
  SpanRecorder& recorder = global();
  if (recorder.enabled()) index_ = recorder.open(name, job);
}

SpanRecorder::Scope::~Scope() {
  if (index_ >= 0) global().close(index_);
}

std::vector<Span> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  const std::vector<Span> spans = snapshot();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.seconds();
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::map<std::string, std::pair<double, std::size_t>> SpanRecorder::totals()
    const {
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const Span& span : snapshot()) {
    auto& [seconds, count] = out[span.name];
    seconds += span.seconds();
    ++count;
  }
  return out;
}

double SpanRecorder::childSeconds(const char* root) const {
  const std::vector<Span> spans = snapshot();
  double total = 0.0;
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    if (parent.parent < 0 && std::strcmp(parent.name, root) == 0) {
      total += span.seconds();
    }
  }
  return total;
}

void SpanRecorder::write(const std::filesystem::path& path) const {
  std::ofstream out(path);
  out << "index\tname\tstart_ns\tend_ns\tparent\tjob\n";
  const std::vector<Span> spans = snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
        << s.parent << '\t' << s.job << '\n';
  }
}

}  // namespace perfbench
