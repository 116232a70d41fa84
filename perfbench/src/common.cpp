#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void RunResult::fail(const std::string& what) {
  checksPassed = false;
  notes.push_back("CHECK FAILED: " + what);
}

void RunResult::count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAILED: " + what);
  }
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n < 11) {
    t.value = xs.back();
    return t;
  }
  t.value = xs[n - 11];
  t.levelPct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

void addLatency(RunResult& out, const std::string& prefix,
                const std::vector<std::vector<double>>& rounds, double scale,
                const std::string& unit) {
  std::vector<double> medians;
  std::vector<double> tails;
  Tail last;
  for (const std::vector<double>& samples : rounds) {
    medians.push_back(median(samples));
    last = tail(samples);
    tails.push_back(last.value);
  }
  out.add(prefix + "_p50_" + unit, median(medians) * scale, unit);
  out.add(prefix + "_tail_" + unit, median(tails) * scale, unit);
  char note[200];
  std::snprintf(note, sizeof note, "%s_tail_%s: p%.1f over %zu samples%s",
                prefix.c_str(), unit.c_str(), last.levelPct, last.samples,
                last.samples < 11 ? " (fewer than 11: maximum)" : "");
  std::string text = note;
  if (rounds.size() > 1) {
    text += ", median over " + std::to_string(rounds.size()) + " rounds";
  }
  out.notes.push_back(text);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digestOf(std::string_view bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t a = 0xcbf29ce484222325ull;
  std::uint64_t b = 0x84222325cbf29ce4ull;
  for (const char c : bytes) {
    const auto byte = static_cast<std::uint8_t>(c);
    a = (a ^ byte) * kPrime;
    b = (b ^ static_cast<std::uint8_t>(byte + 0x5b)) * kPrime;
  }
  char hex[64];
  std::snprintf(hex, sizeof hex, "%016llx%016llx-%zu",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), bytes.size());
  return hex;
}

std::uint64_t Stream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string numberKey(double v) {
  char text[40];
  std::snprintf(text, sizeof text, "%.12g", v);
  return text;
}

ExpectedTable ExpectedTable::load(const std::filesystem::path& path) {
  ExpectedTable table;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string digest;
    if (fields >> key >> digest) table.digests_[key] = digest;
  }
  return table;
}

std::optional<std::string> ExpectedTable::find(const std::string& key) const {
  const auto it = digests_.find(key);
  if (it == digests_.end()) return std::nullopt;
  return it->second;
}

void writeExpectedTable(const std::filesystem::path& path,
                        const std::string& header,
                        const std::map<std::string, std::string>& digests) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "# " << header << "\n";
  for (const auto& [key, digest] : digests) out << key << " " << digest << "\n";
}

ScratchDir::ScratchDir(const std::filesystem::path& root,
                       const std::string& name)
    : path_(root / (name + "-" + std::to_string(::getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
