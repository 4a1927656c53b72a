// Bit-exact reimplementation of the POSIX rand48 family used by the paper's
// simulations ("the Solaris lrand48() pseudorandom number generator").
// Reimplementing it (rather than calling the libc global-state version)
// makes every experiment reproducible and thread-independent.
#ifndef SERPENTINE_UTIL_LRAND48_H_
#define SERPENTINE_UTIL_LRAND48_H_

#include <cstdint>

namespace serpentine {

/// 48-bit linear congruential generator with the standard rand48
/// parameters: X' = (0x5DEECE66D * X + 0xB) mod 2^48.
///
/// `Next31()` matches POSIX lrand48() (non-negative 31-bit values) given the
/// same seeding as srand48(): high 32 bits of the state from the seed, low
/// 16 bits fixed at 0x330E.
class Lrand48 {
 public:
  /// Seeds as srand48(seed) would.
  explicit Lrand48(int32_t seed = 1) { Seed(seed); }

  /// Re-seeds; equivalent to srand48().
  void Seed(int32_t seed) {
    state_ = ((static_cast<uint64_t>(static_cast<uint32_t>(seed)) << 16) |
              0x330Eu) &
             kMask;
  }

  /// Re-seeds from a full 48-bit state (e.g. one produced by
  /// DeriveRand48State), bypassing the srand48 low-word convention.
  void SeedState(uint64_t state) { state_ = state & kMask; }

  /// Returns the next value in [0, 2^31), exactly as lrand48() would.
  int64_t Next31() {
    Step();
    return static_cast<int64_t>(state_ >> 17);
  }

  /// Returns the next value in [0, 1), exactly as drand48() would.
  double NextDouble() {
    Step();
    return static_cast<double>(state_) / static_cast<double>(kMask + 1);
  }

  /// Uniform integer in [0, bound) via rejection-free modulo of Next31().
  /// The paper's pseudocode draws segment numbers this way; the modulo bias
  /// for bound ~ 6e5 against 2^31 is < 0.03 % and irrelevant here.
  int64_t NextBounded(int64_t bound) { return Next31() % bound; }

  /// Exposes the raw 48-bit state, for tests.
  uint64_t state() const { return state_; }

 private:
  static constexpr uint64_t kMask = (uint64_t{1} << 48) - 1;
  static constexpr uint64_t kA = 0x5DEECE66Dull;
  static constexpr uint64_t kC = 0xBull;

  void Step() { state_ = (kA * state_ + kC) & kMask; }

  uint64_t state_;
};

/// Derives a decorrelated 48-bit rand48 state for trial/shard `index` of
/// base seed `seed`, via the splitmix64 finalizer. Giving every simulation
/// trial its own generator (instead of one stream shared across trials)
/// is what lets trials run on any thread in any order while producing
/// bit-identical statistics; 48-bit states make seed collisions between
/// trials negligible even at the paper's 100,000-trial counts.
inline uint64_t DeriveRand48State(int32_t seed, int64_t index) {
  uint64_t z = (static_cast<uint64_t>(static_cast<uint32_t>(seed)) << 32) ^
               static_cast<uint64_t>(index);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z & ((uint64_t{1} << 48) - 1);
}

/// The 31-bit run seed of replication `index` of a run seeded `seed`: the
/// low bits of DeriveRand48State(seed, index). Every RunReplicated* driver
/// reseeds replica r with DeriveReplicaSeed(seed, r).
inline int32_t DeriveReplicaSeed(int32_t seed, int64_t index) {
  return static_cast<int32_t>(DeriveRand48State(seed, index) & 0x7FFFFFFF);
}

/// Splits one seed into a stream of decorrelated child seeds, for
/// experiments that need independent generators per trial.
class SeedSequence {
 public:
  explicit SeedSequence(int32_t seed) : gen_(seed) {}

  /// Returns the next child seed.
  int32_t Next() { return static_cast<int32_t>(gen_.Next31() & 0x7FFFFFFF); }

 private:
  Lrand48 gen_;
};

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_LRAND48_H_
