#include "common/sync.h"

#include <vector>

#include "common/logging.h"

namespace p2prange {
namespace sync_internal {

namespace {

// Ranks of every ranked lock the calling thread currently holds, in
// acquisition order. Unlock order may differ from reverse lock order,
// so release removes the newest matching entry rather than popping.
std::vector<int>& HeldRanks() {
  thread_local std::vector<int> ranks;
  return ranks;
}

}  // namespace

void NoteAcquire(int rank, bool check_order) {
  if (rank == kNoLockRank) return;
  std::vector<int>& held = HeldRanks();
  if (check_order) {
    for (int h : held) {
      CHECK_LT(h, rank)
          << "lock-rank inversion: acquiring a lock of rank " << rank
          << " while holding rank " << h
          << " (ranks must strictly increase along every acquisition "
             "chain; see the rank table in DESIGN.md)";
    }
  }
  held.push_back(rank);
}

void NoteRelease(int rank) {
  if (rank == kNoLockRank) return;
  std::vector<int>& held = HeldRanks();
  for (size_t i = held.size(); i > 0; --i) {
    if (held[i - 1] == rank) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
  LOG_FATAL() << "releasing a rank-" << rank
              << " lock this thread does not hold";
}

uint64_t ThisThreadTag() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t tag = next.fetch_add(1);
  return tag;
}

}  // namespace sync_internal

ExclusiveUse::Scope::Scope(ExclusiveUse* use, const char* site) : use_(use) {
  const uint64_t me = sync_internal::ThisThreadTag();
  if (use_->owner_.load(std::memory_order_relaxed) != me) {
    uint64_t expected = 0;
    CHECK(use_->owner_.compare_exchange_strong(expected, me,
                                               std::memory_order_acquire))
        << "concurrent use of a single-threaded object: " << site
        << " entered while thread tag " << expected
        << " is still inside (this class is one-thread-at-a-time; "
           "hand it off with a join, or add a lock)";
  }
  ++use_->depth_;
}

ExclusiveUse::Scope::~Scope() {
  if (--use_->depth_ == 0) {
    use_->owner_.store(0, std::memory_order_release);
  }
}

}  // namespace p2prange
