#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace webcache::util {

namespace {

// FNV-1a over a byte string; used to turn fork tags into seed perturbations.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Rng Rng::fork(std::string_view tag) {
  const std::uint64_t child_seed = next_u64() ^ fnv1a(tag);
  return Rng(child_seed);
}

double Rng::uniform() {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) {
  std::uniform_int_distribution<std::uint64_t> dist(0, n - 1);
  return dist(engine_);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::gaussian() {
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Rng::exponential(double rate) {
  std::exponential_distribution<double> dist(rate);
  return dist(engine_);
}

}  // namespace webcache::util
