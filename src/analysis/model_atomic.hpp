// ModelAtomics: the atomics policy that routes every atomic operation (and
// every access to the non-atomic cells the atomics are supposed to publish)
// through the wfcheck Model. Instantiating a primitive with this policy —
// SpscQueue<T, Cap, ModelAtomics>, BasicSpinBarrier<ModelAtomics>,
// BasicPtrCell<Ptr, ModelAtomics> — runs the IDENTICAL protocol source under
// the model checker; the production build uses RealAtomics and compiles to
// plain std::atomic with zero overhead (see concurrent/atomics_policy.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "analysis/model.hpp"

namespace wfbn::mc {

namespace detail {

inline Model& active_model() {
  Model* m = Model::current();
  if (m == nullptr) {
    throw std::logic_error(
        "wfcheck: a ModelAtomics-instantiated primitive was used outside "
        "mc::check() — model objects only live on model threads");
  }
  return *m;
}

template <typename T>
[[nodiscard]] std::uint64_t bits_of(const T& v) noexcept {
  if constexpr (std::is_trivially_copyable_v<T> && sizeof(T) <= 8) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(T));
    return bits;
  } else {
    return 0;  // traced as opaque; identity still race-checked
  }
}

template <typename T>
[[nodiscard]] T from_bits(std::uint64_t bits) noexcept {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
  T v;
  std::memcpy(&v, &bits, sizeof(T));
  return v;
}

}  // namespace detail

/// Drop-in for std::atomic<T> (the subset the primitives use) that announces
/// each operation to the active Model as a schedule point and memory-model
/// event. T must be an 8-byte-or-smaller trivially-copyable type (ints,
/// bools, pointers — everything the primitives store atomically).
template <typename T>
class ModelAtomic {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "ModelAtomic requires a <=8-byte trivially copyable type");

 public:
  ModelAtomic() : ModelAtomic(T{}) {}
  explicit ModelAtomic(T initial)
      : loc_(detail::active_model().register_atomic(detail::bits_of(initial),
                                                    std::is_pointer_v<T>)) {}
  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;
  ~ModelAtomic() {
    if (Model* m = Model::current()) m->unregister_atomic(loc_);
  }

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return detail::from_bits<T>(detail::active_model().atomic_load(loc_, mo));
  }

  void store(T value, std::memory_order mo = std::memory_order_seq_cst) {
    detail::active_model().atomic_store(loc_, detail::bits_of(value), mo);
  }

  T exchange(T value, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_bits<T>(detail::active_model().atomic_rmw(
        loc_, RmwOp::kExchange, detail::bits_of(value), 0, mo));
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order mo = std::memory_order_seq_cst) {
    bool ok = false;
    const std::uint64_t prev = detail::active_model().atomic_rmw(
        loc_, RmwOp::kCas, detail::bits_of(desired), detail::bits_of(expected),
        mo, &ok);
    if (!ok) expected = detail::from_bits<T>(prev);
    return ok;
  }

  /// The model has no spurious failures; weak == strong. Schedules where a
  /// real weak CAS would fail spuriously are a subset of the retry loops the
  /// checker already explores via genuine interference.
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order mo = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, mo);
  }

  template <typename U = T,
            std::enable_if_t<std::is_integral_v<U>, int> = 0>
  T fetch_add(T delta, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_bits<T>(detail::active_model().atomic_rmw(
        loc_, RmwOp::kAdd, detail::bits_of(delta), 0, mo));
  }

  template <typename U = T,
            std::enable_if_t<std::is_integral_v<U>, int> = 0>
  T fetch_sub(T delta, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_bits<T>(detail::active_model().atomic_rmw(
        loc_, RmwOp::kSub, detail::bits_of(delta), 0, mo));
  }

 private:
  std::size_t loc_;
};

/// Drop-in for a plain (non-atomic) T cell: the payload slots the atomics
/// publish. Every read/write is checked against the vector-clock race
/// detector — this is what turns a missing release/acquire edge into a
/// reported data race instead of a silent wrong value.
template <typename T>
class ModelData {
 public:
  ModelData() : value_{}, loc_(detail::active_model().register_data()) {}
  ModelData(const T& v)  // NOLINT(google-explicit-constructor)
      : value_(v), loc_(detail::active_model().register_data()) {}
  ModelData(T&& v)  // NOLINT(google-explicit-constructor)
      : value_(std::move(v)), loc_(detail::active_model().register_data()) {}
  ModelData(const ModelData&) = delete;
  ModelData& operator=(const ModelData&) = delete;
  ~ModelData() {
    if (Model* m = Model::current()) m->unregister_data(loc_);
  }

  ModelData& operator=(const T& v) {
    detail::active_model().data_store(loc_, detail::bits_of(v));
    value_ = v;
    return *this;
  }

  ModelData& operator=(T&& v) {
    detail::active_model().data_store(loc_, detail::bits_of(v));
    value_ = std::move(v);
    return *this;
  }

  operator T() const {  // NOLINT(google-explicit-constructor)
    detail::active_model().data_load(loc_, detail::bits_of(value_));
    return value_;
  }

 private:
  T value_;
  std::size_t loc_;
};

/// The atomics policy handed to the templated primitives when they run under
/// the checker. Spin loops yield immediately (threshold 0) so a waiting
/// thread is descheduled until a store can actually wake it — without this,
/// enumerating schedules of a spin loop would never terminate.
struct ModelAtomics {
  template <typename T>
  using Atomic = ModelAtomic<T>;
  template <typename T>
  using Data = ModelData<T>;
  static constexpr std::size_t kSpinYieldThreshold = 0;
  static constexpr bool kNoexceptOps = false;  // checker unwinds by throwing
  static void yield() { detail::active_model().thread_yield(); }
};

}  // namespace wfbn::mc
