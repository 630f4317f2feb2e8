/**
 * @file
 * A small-buffer-optimized std::function replacement for simulation
 * callbacks.
 *
 * The event queue schedules hundreds of thousands of callbacks per
 * replay; std::function heap-allocates every capture larger than two
 * words, which gprof shows as one of the dominant costs of a replay.
 * sim::Function keeps captures up to the inline budget in the object
 * itself (falling back to the heap above it), so the common wrappers
 * — "this plus a continuation plus a couple of scalars" — schedule
 * without touching the allocator.
 *
 * An inline callable of at most one cache line that is trivially
 * copyable and trivially destructible (every closure the replay
 * schedules captures only pointers and ticks) moves as a fixed-size
 * byte copy and is destroyed without an indirect call.  The choice is
 * made at compile time from the callable's type; every other callable
 * moves and is destroyed through its vtable.
 */

#ifndef CHARON_SIM_CALLBACK_HH
#define CHARON_SIM_CALLBACK_HH

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace charon::sim
{

template <typename Sig, std::size_t Inline = 96> class Function;

/**
 * Copyable type-erased callable with @p Inline bytes of in-object
 * capture storage.  Move-only callables (unique_ptr captures and the
 * like) are accepted; copying a Function holding one aborts, so the
 * queue's move-only schedule path stays allocation-honest without a
 * per-callable copyability tax.
 */
template <typename R, typename... Args, std::size_t Inline>
class Function<R(Args...), Inline>
{
  public:
    Function() = default;
    Function(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Function>
                  && std::is_invocable_r_v<R, std::decay_t<F> &,
                                           Args...>>>
    Function(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= Inline
                      && alignof(Fn) <= alignof(std::max_align_t)) {
            // A byte copy moves kCopyBytes: define every one of them.
            if constexpr (kBytewise<Fn>)
                std::memset(buf_, 0, kCopyBytes);
            ::new (storage()) Fn(std::forward<F>(f));
            vt_ = &inlineVt<Fn>;
        } else {
            *reinterpret_cast<Fn **>(storage()) =
                new Fn(std::forward<F>(f));
            vt_ = &heapVt<Fn>;
        }
    }

    Function(const Function &o)
    {
        if (o.vt_) {
            o.vt_->copy(storage(), o.storage());
            vt_ = o.vt_;
        }
    }

    Function(Function &&o) noexcept { take(o); }

    Function &
    operator=(const Function &o)
    {
        if (this != &o) {
            reset();
            if (o.vt_) {
                o.vt_->copy(storage(), o.storage());
                vt_ = o.vt_;
            }
        }
        return *this;
    }

    Function &
    operator=(Function &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    ~Function() { reset(); }

    /** Destroy the held callable, if any, leaving this empty. */
    void
    reset()
    {
        if (vt_) {
            if (vt_->destroy)
                vt_->destroy(storage());
            vt_ = nullptr;
        }
    }

    explicit operator bool() const { return vt_ != nullptr; }

    R
    operator()(Args... args) const
    {
        return vt_->invoke(storage(), std::forward<Args>(args)...);
    }

  private:
    /**
     * Per-callable operations.  Null move and destroy mark a callable
     * that moves as a byte copy and needs no destructor call.
     */
    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        void (*copy)(void *dst, const void *src);
        void (*move)(void *dst, void *src);
        void (*destroy)(void *);
    };

    /** What a byte copy moves: the buffer, up to one cache line. */
    static constexpr std::size_t kCopyBytes = Inline < 64 ? Inline : 64;

    template <typename Fn>
    static constexpr bool kBytewise =
        sizeof(Fn) <= kCopyBytes && std::is_trivially_copyable_v<Fn>
        && std::is_trivially_destructible_v<Fn>;

    template <typename Fn> static constexpr VTable inlineVt = {
        [](void *s, Args &&...args) -> R {
            return (*static_cast<Fn *>(s))(
                std::forward<Args>(args)...);
        },
        [](void *dst, const void *src) {
            // Move-only callables are allowed in (the queue only
            // moves); copying one is a programming error.
            if constexpr (std::is_copy_constructible_v<Fn>)
                ::new (dst) Fn(*static_cast<const Fn *>(src));
            else
                std::abort();
        },
        kBytewise<Fn> ? nullptr : +[](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        kBytewise<Fn> ? nullptr
                      : +[](void *s) { static_cast<Fn *>(s)->~Fn(); },
    };

    template <typename Fn> static constexpr VTable heapVt = {
        [](void *s, Args &&...args) -> R {
            return (**static_cast<Fn **>(s))(
                std::forward<Args>(args)...);
        },
        [](void *dst, const void *src) {
            if constexpr (std::is_copy_constructible_v<Fn>)
                *static_cast<Fn **>(dst) =
                    new Fn(**static_cast<Fn *const *>(src));
            else
                std::abort();
        },
        [](void *dst, void *src) {
            *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
        },
        [](void *s) { delete *static_cast<Fn **>(s); },
    };

    /** Move @p o's callable into this empty Function. */
    void
    take(Function &o)
    {
        if (o.vt_) {
            if (o.vt_->move)
                o.vt_->move(storage(), o.storage());
            else
                std::memcpy(buf_, o.buf_, kCopyBytes);
            vt_ = o.vt_;
            o.vt_ = nullptr;
        }
    }

    void *storage() const { return const_cast<unsigned char *>(buf_); }

    const VTable *vt_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Inline];
};

} // namespace charon::sim

#endif // CHARON_SIM_CALLBACK_HH
