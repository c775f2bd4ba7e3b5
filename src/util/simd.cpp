#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace wfbn::simd {

namespace {

/// -1 = no override; otherwise a Level cap installed by ScopedForceLevel.
std::atomic<int> g_forced_cap{-1};

Level host_level() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  // The AVX2 level's kernels also use POPCNT (every AVX2 CPU has it).
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt")
             ? Level::kAvx2
             : Level::kScalar;
#else
  return Level::kScalar;
#endif
}

/// The WFBN_SIMD environment variable caps detection for whole-process
/// force-disable (the CI scalar leg): "scalar" pins every dispatch to the
/// portable kernels, "avx2"/"auto"/unset leave detection alone. Read once.
Level env_ceiling() noexcept {
  static const Level ceiling = [] {
    const char* value = std::getenv("WFBN_SIMD");
    if (value != nullptr && std::strcmp(value, "scalar") == 0) {
      return Level::kScalar;
    }
    return Level::kAvx2;
  }();
  return ceiling;
}

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

Level detected() noexcept {
  Level level = host_level();
  if (env_ceiling() < level) level = env_ceiling();
  const int forced = g_forced_cap.load(std::memory_order_relaxed);
  if (forced >= 0 && static_cast<Level>(forced) < level) {
    level = static_cast<Level>(forced);
  }
  return level;
}

Level resolve(Policy policy) noexcept {
  const Level cap = detected();
  switch (policy) {
    case Policy::kAuto: return cap;
    case Policy::kScalar: return Level::kScalar;
    case Policy::kAvx2:
      return cap < Level::kAvx2 ? cap : Level::kAvx2;
  }
  return Level::kScalar;
}

ScopedForceLevel::ScopedForceLevel(Level level) noexcept
    : previous_(g_forced_cap.exchange(static_cast<int>(level),
                                      std::memory_order_relaxed)) {}

ScopedForceLevel::~ScopedForceLevel() {
  g_forced_cap.store(previous_, std::memory_order_relaxed);
}

}  // namespace wfbn::simd
