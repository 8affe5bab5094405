// A non-owning reference to a callable, for hot callbacks that must not
// allocate or copy their closure (std::function may do both).

#ifndef BDDFC_BASE_FUNCTION_REF_H_
#define BDDFC_BASE_FUNCTION_REF_H_

#include <type_traits>
#include <utility>

namespace bddfc {

template <class Signature>
class FunctionRef;

/// Borrows a callable for the duration of a call: two words, one indirect
/// call per invocation. The callable must outlive the FunctionRef, so bind
/// it to a parameter, never store it.
template <class R, class... Args>
class FunctionRef<R(Args...)> {
  // A FunctionRef binds any callable but itself: a copy must share the
  // original's target, not refer to the original.
  template <class F>
  static constexpr bool kBindable =
      !std::is_same_v<std::decay_t<F>, FunctionRef> &&
      std::is_invocable_r_v<R, F&, Args...>;

 public:
  template <class F, class = std::enable_if_t<kBindable<F>>>
  FunctionRef(F&& f)
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        call_(&Call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  template <class F>
  static R Call(void* object, Args... args) {
    return (*static_cast<F*>(object))(std::forward<Args>(args)...);
  }

  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace bddfc

#endif  // BDDFC_BASE_FUNCTION_REF_H_
