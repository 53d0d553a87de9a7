// Seeded random-number generation with reproducible substreams.
//
// Every stochastic component in this library draws from an Rng that is
// derived, directly or via fork(), from a single user-supplied seed, so a
// whole experiment is reproducible from one integer.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace webcache::util {

/// SplitMix64 finalizer: a bijective 64-bit mix that decorrelates nearby
/// inputs. Seeds the Rng engine and keys the library's deterministic hashes
/// (hierarchy edge assignment, probe timeouts, SHARDS sampling).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random source.
///
/// Thin wrapper over std::mt19937_64 adding:
///  - substream forking (`fork`), so independent components can draw from
///    statistically independent streams derived from one master seed, and
///  - convenience draws used throughout the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(mix64(seed)) {}

  /// Creates an independent substream. Forks with distinct tags (or in a
  /// distinct order) from the same parent produce distinct streams.
  Rng fork(std::string_view tag);

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n-1]. Requires n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Standard normal draw.
  double gaussian();

  /// Exponential draw with the given rate (> 0).
  double exponential(double rate);

  /// Raw 64-bit draw; exposed for distribution classes.
  std::uint64_t next_u64() { return engine_(); }

  /// The wrapped engine, for interoperating with <random> distributions.
  std::mt19937_64& engine() { return engine_; }
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace webcache::util
