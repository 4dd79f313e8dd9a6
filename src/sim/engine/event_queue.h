// Event queue of the scenario engine's crash and recover events.
//
// A flat binary min-heap over 24-byte POD events, ordered by
// (time_ms, seq) so equal-time events pop in push order — the
// determinism the whole engine rests on. Queries never enter it: they
// fall due on a fixed schedule, so ScenarioEngine::Run fires them from
// a cursor and merges that schedule with this queue.
#ifndef P2PRANGE_SIM_ENGINE_EVENT_QUEUE_H_
#define P2PRANGE_SIM_ENGINE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2prange {
namespace sim {

/// \brief What a scheduled event does when it fires.
enum class EventType : uint8_t {
  kCrash = 0,    ///< abrupt failure of a random alive peer
  kRecover = 1,  ///< crashed peer rejoins; subject = peer slot
};

/// \brief One scheduled simulation event. Kept POD and small (24
/// bytes) so a million pending events cost ~24 MB, not a GB of
/// closures.
struct Event {
  double time_ms = 0.0;
  uint64_t seq = 0;  ///< FIFO tiebreak among equal timestamps
  EventType type = EventType::kCrash;
  uint32_t subject = 0;
};

/// \brief Deterministic binary min-heap of events.
class EventQueue {
 public:
  /// Schedules `type` at `time_ms`; seq is assigned in push order.
  void Push(double time_ms, EventType type, uint32_t subject);

  /// Pops the earliest event into *out; false when empty.
  bool Pop(Event* out);

  /// The event Pop would return next, or nullptr when empty. Valid
  /// until the next Push or Pop.
  const Event* Peek() const { return heap_.empty() ? nullptr : &heap_.front(); }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Heap storage footprint (the engine's bytes/peer accounting).
  uint64_t MemoryBytes() const { return heap_.capacity() * sizeof(Event); }

 private:
  /// a sorts strictly before b.
  static bool Before(const Event& a, const Event& b) {
    if (a.time_ms != b.time_ms) return a.time_ms < b.time_ms;
    return a.seq < b.seq;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);

  std::vector<Event> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace sim
}  // namespace p2prange

#endif  // P2PRANGE_SIM_ENGINE_EVENT_QUEUE_H_
