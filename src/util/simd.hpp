// Runtime SIMD capability probe and dispatch policy for the AND-popcount
// kernels (table/simd_kernels.hpp) of the entry planes' lattice, which
// counts all-pairs MI pass 2 and, where the cost rule picks it, the CI
// tests' marginals and the counting index's answers.
//
// Kernels are compiled per *level* — kScalar always, kAvx2 behind a GCC/clang
// `target("avx2,popcnt")` function attribute on x86-64 — and selected at
// runtime so one binary runs correctly on any host. BasicEntryPlanes reads
// the level once per counting call, and its cost rule prices a plane word
// per level. The level is
//
//   host capability (cpuid, cached)
//     ∧ WFBN_SIMD environment ceiling (CI force-disable leg)
//     ∧ ScopedForceLevel test override (forced-downgrade coverage)
//   = detected()
//
// Downgrades are silent and graceful by design: a host without AVX2 runs
// the scalar kernels, bit-identically (the oracle tests pin this down at
// every level). There is no "fail if unsupported" mode — the levels compute
// the same bits, only at different speeds.
#pragma once

namespace wfbn::simd {

/// Kernel dispatch levels, ordered: a higher level strictly implies the
/// capabilities of every lower one.
enum class Level : int {
  kScalar = 0,  ///< portable C++, no instruction-set assumptions
  kAvx2 = 1,    ///< x86-64 AVX2 + POPCNT specializations (runtime-verified)
};

/// What a caller may ask for. kAuto resolves to the best detected level.
enum class Policy : int {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
};

[[nodiscard]] const char* level_name(Level level) noexcept;

/// Highest level this host can execute, after the WFBN_SIMD environment
/// ceiling (read once) and any ScopedForceLevel override. Cheap: the cpuid
/// probe runs once per process.
[[nodiscard]] Level detected() noexcept;

/// Resolves a request against detected(): kAuto → detected(); an explicit
/// request is capped at detected() (graceful downgrade, never an error).
[[nodiscard]] Level resolve(Policy policy) noexcept;

/// RAII test hook: caps detected() at `level` for the scope's lifetime, so
/// the scalar fallback of every dispatch site is exercisable on any host —
/// including one whose hardware supports the higher level. Not thread-safe
/// against concurrent resolve() races by design (test-only, armed before the
/// parallel region starts).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level level) noexcept;
  ~ScopedForceLevel();
  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

 private:
  int previous_;
};

}  // namespace wfbn::simd
