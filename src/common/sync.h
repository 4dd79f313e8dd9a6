// The annotated synchronization layer: every lock in src/ is one of
// these types, never a raw std primitive (invariant P2P007).
//
// Two enforcement layers ride on that single spelling:
//
//  * Compile time — Clang thread-safety analysis (Hutchins et al.,
//    "C/C++ Thread Safety Analysis"; the abseil Mutex capability
//    model). Fields carry GUARDED_BY(mu), functions carry
//    REQUIRES(mu) / EXCLUDES(mu), and the build gate
//    -DP2PRANGE_THREAD_SAFETY=ON turns -Wthread-safety into an error,
//    so reading a worker-shared field without its lock is a build
//    break, not a TSan roll of the dice. On compilers without the
//    analysis (GCC) the annotation macros expand to nothing and the
//    types behave identically.
//
//  * Run time — optional per-Mutex lock ranks. A Mutex constructed
//    with a rank participates in a global acquisition order: a thread
//    may only acquire a ranked lock whose rank is strictly greater
//    than every ranked lock it already holds, and a violation
//    CHECK-aborts with both ranks in the message. Deadlock ordering
//    is thereby enforced in the ordinary ctest/TSan builds, not just
//    reasoned about in comments. Unranked mutexes skip the
//    bookkeeping entirely; ranked ones always check, in every build.
//    The rank table lives in DESIGN.md ("Engineering standards").
//
// The layer also owns the two single-threaded-by-contract seams:
// ThreadChecker (sticky owner thread, for the scenario engine) and
// ExclusiveUse (one-thread-at-a-time sentinel with handoff, for the
// TCP transport and server).
#ifndef P2PRANGE_COMMON_SYNC_H_
#define P2PRANGE_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>  // p2plint: allow(P2P007): the one annotated wrapper
#include <cstdint>
#include <mutex>         // p2plint: allow(P2P007): the one annotated wrapper
#include <shared_mutex>  // p2plint: allow(P2P007): the one annotated wrapper
#include <thread>

// --------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere)
// --------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define P2P_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define P2P_THREAD_ANNOTATION__(x)  // GCC: annotations vanish, types remain
#endif

/// Marks a class as a lockable capability ("mutex", "shared_mutex").
#define CAPABILITY(x) P2P_THREAD_ANNOTATION__(capability(x))
/// Marks an RAII class whose ctor acquires and dtor releases.
#define SCOPED_CAPABILITY P2P_THREAD_ANNOTATION__(scoped_lockable)
/// Field may only be touched while holding `x`.
#define GUARDED_BY(x) P2P_THREAD_ANNOTATION__(guarded_by(x))
/// Pointer field whose *pointee* is protected by `x`.
#define PT_GUARDED_BY(x) P2P_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Function requires the capability held (exclusively) on entry.
#define REQUIRES(...) \
  P2P_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
/// Function requires at least shared hold on entry.
#define REQUIRES_SHARED(...) \
  P2P_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability and does not release it.
#define ACQUIRE(...) P2P_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  P2P_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability.
#define RELEASE(...) P2P_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  P2P_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
/// Function acquires the capability only when returning `ret`.
#define TRY_ACQUIRE(ret, ...) \
  P2P_THREAD_ANNOTATION__(try_acquire_capability(ret, __VA_ARGS__))
/// Function must NOT be entered holding the capability (deadlock gate).
#define EXCLUDES(...) P2P_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (teaches the analysis).
#define ASSERT_CAPABILITY(x) P2P_THREAD_ANNOTATION__(assert_capability(x))
/// Function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) P2P_THREAD_ANNOTATION__(lock_returned(x))
/// Escape hatch — forbidden outside src/common/sync.h (see DESIGN.md).
#define NO_THREAD_SAFETY_ANALYSIS \
  P2P_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace p2prange {

/// Rank value meaning "this mutex opts out of order checking".
inline constexpr int kNoLockRank = -1;

/// The global lock acquisition order. A thread may only acquire a
/// ranked lock whose rank is strictly greater than every ranked lock
/// it already holds; gaps are deliberate so new locks slot in without
/// renumbering. Rationale for each edge lives in DESIGN.md
/// ("Engineering standards").
namespace lock_rank {
/// NodeService::ring_mu_ — redirect-ring snapshot, outermost.
inline constexpr int kRedirectRing = 10;
/// NodeService::data_mu_ — descriptor store + partition cache.
inline constexpr int kNodeData = 20;
/// rpc::Executor::mu_ — work/completion queues; workers take it while
/// the service may hold data_mu_.
inline constexpr int kExecutor = 30;
/// Logging sink mutex — the innermost lock in the tree, because any
/// code path may emit a log line (including CHECK failures) while
/// holding any other lock.
inline constexpr int kLogSink = 1000;
}  // namespace lock_rank

namespace sync_internal {

// Lock-rank bookkeeping (sync.cc). No-ops when rank == kNoLockRank.
// `check_order` is false for try-acquisitions: an out-of-order TryLock
// cannot deadlock, it can only fail.
void NoteAcquire(int rank, bool check_order);
void NoteRelease(int rank);

/// Small dense id for the calling thread; never zero.
uint64_t ThisThreadTag();

}  // namespace sync_internal

// --------------------------------------------------------------------------
// Mutex / CondVar
// --------------------------------------------------------------------------

/// \brief The project's exclusive lock: std::mutex plus capability
/// annotations and an optional deadlock-ordering rank.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A ranked mutex: acquiring it while holding any ranked lock with
  /// rank >= `rank` CHECK-aborts (see file comment).
  explicit Mutex(int rank) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    sync_internal::NoteAcquire(rank_, /*check_order=*/true);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(rank_);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::NoteAcquire(rank_, /*check_order=*/false);
    return true;
  }

  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;  // p2plint: allow(P2P007): the annotated layer's own guts
  const int rank_ = kNoLockRank;
};

/// \brief Condition variable bound to a Mutex at each wait. The mutex
/// stays logically held across Wait (released and reacquired inside),
/// exactly the capability model the analysis assumes.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until signalled (spurious wakeups possible — always wait
  /// in a predicate loop). `mu` must be held by the caller.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> native(  // p2plint: allow(P2P007): wrapper guts
        mu->mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's scope
  }

  /// Waits up to `timeout`; returns false on timeout, true when
  /// notified (subject to spurious wakeups, same as Wait).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex* mu, std::chrono::duration<Rep, Period> timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> native(  // p2plint: allow(P2P007): wrapper guts
        mu->mu_, std::adopt_lock);
    const std::cv_status st = cv_.wait_for(native, timeout);
    native.release();
    return st == std::cv_status::no_timeout;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // p2plint: allow(P2P007): wrapper guts
};

/// \brief Scoped exclusive lock; the only spelling for "hold mu_ for
/// this block". Never hold one across a blocking syscall in the same
/// block (invariant P2P008).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// --------------------------------------------------------------------------
// SharedMutex (reader/writer)
// --------------------------------------------------------------------------

/// \brief Reader/writer lock with the same annotation + rank contract
/// as Mutex. Shared holders participate in rank ordering too — a
/// reader waiting behind a writer is a deadlock edge like any other.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) : rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    sync_internal::NoteAcquire(rank_, /*check_order=*/true);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    sync_internal::NoteRelease(rank_);
  }
  void ReaderLock() ACQUIRE_SHARED() {
    sync_internal::NoteAcquire(rank_, /*check_order=*/true);
    mu_.lock_shared();
  }
  void ReaderUnlock() RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::NoteRelease(rank_);
  }

  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;  // p2plint: allow(P2P007): wrapper guts
  const int rank_ = kNoLockRank;
};

/// Scoped exclusive hold on a SharedMutex (inserts, flushes).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Scoped shared hold on a SharedMutex (the read-heavy probe side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// --------------------------------------------------------------------------
// Single-threaded-by-contract seams
// --------------------------------------------------------------------------

/// \brief Sticky owner-thread pin for components that are
/// single-threaded BY DESIGN (the scenario engine): bound at
/// construction, re-pinned explicitly after a move, checked with
/// CalledOnOwnerThread() wherever the contract matters.
class ThreadChecker {
 public:
  ThreadChecker() : owner_(std::this_thread::get_id()) {}

  /// Re-pins to the calling thread — for factories that build on one
  /// thread and hand the object to another via move.
  void Rebind() { owner_ = std::this_thread::get_id(); }

  bool CalledOnOwnerThread() const {
    return std::this_thread::get_id() == owner_;
  }

 private:
  std::thread::id owner_;
};

/// \brief Sentinel that a "not thread-safe" class is honoured at run
/// time: each public entry point opens a Scope, and two threads inside
/// any Scope of the same ExclusiveUse concurrently CHECK-abort with
/// the entry point's name — a crisp crash where silent state
/// corruption used to be. Unlike ThreadChecker the owner is not
/// sticky: once every Scope closes, a *different* thread may enter
/// (ownership handoff via join/synchronization is legal and the TCP
/// tests use it). Same-thread reentrancy is allowed, so guarded
/// methods may call each other.
class ExclusiveUse {
 public:
  ExclusiveUse() = default;

  class Scope {
   public:
    /// `site` names the entry point for the failure message; it must
    /// outlive the scope (string literals only).
    Scope(ExclusiveUse* use, const char* site);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ExclusiveUse* const use_;
  };

 private:
  /// ThisThreadTag() of the thread currently inside, 0 when empty.
  std::atomic<uint64_t> owner_{0};
  /// Reentrancy depth; touched only by the owning thread between the
  /// acquire CAS and the release store, so a plain int is race-free.
  uint32_t depth_ = 0;
};

}  // namespace p2prange

#endif  // P2PRANGE_COMMON_SYNC_H_
