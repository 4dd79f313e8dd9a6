#include "sim/engine/event_queue.h"

#include <utility>

namespace p2prange {
namespace sim {

void EventQueue::Push(double time_ms, EventType type, uint32_t subject) {
  Event e;
  e.time_ms = time_ms;
  e.seq = next_seq_++;
  e.type = type;
  e.subject = subject;
  heap_.push_back(e);
  SiftUp(heap_.size() - 1);
}

bool EventQueue::Pop(Event* out) {
  if (heap_.empty()) return false;
  *out = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return true;
}

void EventQueue::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void EventQueue::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t left = 2 * i + 1;
    const size_t right = left + 1;
    size_t best = i;
    if (left < n && Before(heap_[left], heap_[best])) best = left;
    if (right < n && Before(heap_[right], heap_[best])) best = right;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

}  // namespace sim
}  // namespace p2prange
