#ifndef CDBTUNE_UTIL_THREAD_ANNOTATIONS_H_
#define CDBTUNE_UTIL_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis annotations (DESIGN.md "Lock discipline").
///
/// Every mutex-guarded member and lock-protocol function in the repo carries
/// one of these macros, making the locking protocol part of the type system:
/// a clang build with -Wthread-safety rejects any access to a guarded member
/// without its mutex held, any out-of-protocol acquire, and any function
/// whose caller-held-lock contract is violated. GCC compiles the macros to
/// nothing, so the annotations cost nothing off the clang gate (the CI
/// `thread-safety` job is the enforcing build).
///
/// The macros wrap the util::Mutex / util::MutexLock / util::CondVar and
/// util::SharedMutex / util::ReaderLock / util::WriterLock types in
/// util/mutex.h — annotate with those, not raw std::mutex (the lint
/// `raw-mutex` rule rejects raw standard-library synchronization in src/).

#if defined(__clang__)
#define CDBTUNE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CDBTUNE_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a type to be a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CDBTUNE_CAPABILITY(x) CDBTUNE_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define CDBTUNE_SCOPED_CAPABILITY CDBTUNE_THREAD_ANNOTATION_(scoped_lockable)

/// Member data that may only be touched while `x` is held.
#define CDBTUNE_GUARDED_BY(x) CDBTUNE_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* may only be touched while `x` is held.
#define CDBTUNE_PT_GUARDED_BY(x) CDBTUNE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares a required acquisition order relative to other mutexes (the
/// runtime lock-rank detector in util::Mutex enforces the same order
/// dynamically in debug builds).
#define CDBTUNE_ACQUIRED_BEFORE(...) \
  CDBTUNE_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define CDBTUNE_ACQUIRED_AFTER(...) \
  CDBTUNE_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function contract: the caller must hold the listed capabilities.
#define CDBTUNE_REQUIRES(...) \
  CDBTUNE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires / releases the listed capabilities itself.
#define CDBTUNE_ACQUIRE(...) \
  CDBTUNE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define CDBTUNE_RELEASE(...) \
  CDBTUNE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define CDBTUNE_TRY_ACQUIRE(...) \
  CDBTUNE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Shared (reader) twins of ACQUIRE / RELEASE for util::SharedMutex: a
/// shared hold permits reads of the guarded members, and only an exclusive
/// one permits writes. Scoped lock destructors use plain RELEASE, which
/// releases either kind.
#define CDBTUNE_ACQUIRE_SHARED(...) \
  CDBTUNE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define CDBTUNE_RELEASE_SHARED(...) \
  CDBTUNE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// Function contract: the caller must NOT hold the listed capabilities
/// (the function acquires them internally — calling with one held would
/// self-deadlock).
#define CDBTUNE_EXCLUDES(...) \
  CDBTUNE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Runtime assertion that a capability is held (util::Mutex::AssertHeld);
/// tells the static analysis to treat it as held from here on.
#define CDBTUNE_ASSERT_CAPABILITY(x) \
  CDBTUNE_THREAD_ANNOTATION_(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define CDBTUNE_RETURN_CAPABILITY(x) \
  CDBTUNE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the protocol cannot be expressed
/// statically (see DESIGN.md "Lock discipline" for the suppression policy).
#define CDBTUNE_NO_THREAD_SAFETY_ANALYSIS \
  CDBTUNE_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // CDBTUNE_UTIL_THREAD_ANNOTATIONS_H_
