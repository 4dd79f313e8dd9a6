// Live-ring membership: join/leave/stabilize/failure-detection over
// the real RPC transport (DESIGN.md §9).
//
// One LiveMembership instance runs inside each daemon, driven from the
// p2prange_node poll loop: Tick() starts asynchronous probe, gossip,
// and stabilize exchanges (via TcpTransport::StartCall/PollCall, so
// the event loop never blocks on a peer), and the matching server-side
// handlers answer the same messages arriving from other daemons
// through NodeService::Handle.
//
// The view is an SWIM-flavored member table: every member carries an
// (incarnation, status) pair, entries merge by "higher incarnation
// wins, ties resolve toward the more terminal status", and dead/left
// tombstones age out after a TTL. A restarted daemon picks a fresh
// (larger) incarnation at startup, so its new alive entry overrides
// its own tombstone without any persisted membership state. Routing
// state is the full sorted view (RingView rebuilt from the alive set),
// which subsumes Chord's finger table at deployable ring sizes; the
// classic stabilize/notify exchange still runs so immediate neighbors
// converge faster than the gossip epidemic alone.
//
// Threading: owned by one thread (the daemon's event loop), like every
// other piece of the rpc layer.
#ifndef P2PRANGE_RPC_MEMBERSHIP_H_
#define P2PRANGE_RPC_MEMBERSHIP_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "chord/id.h"
#include "common/random.h"
#include "common/result.h"
#include "net/address.h"
#include "rpc/ring_view.h"
#include "rpc/tcp_transport.h"
#include "wire/serde.h"

namespace p2prange {
namespace rpc {

// --------------------------------------------------------------------------
// Member entries and their wire form
// --------------------------------------------------------------------------

/// \brief Lifecycle of a member as this node believes it. Values are
/// wire-stable and ordered by terminality: a tie in incarnation
/// resolves toward the larger status.
enum class MemberStatus : uint8_t {
  kAlive = 0,
  kSuspect = 1,  ///< missed probes, not yet declared dead
  kDead = 2,     ///< failure detector gave up on it
  kLeft = 3,     ///< announced a graceful departure
};

const char* MemberStatusName(MemberStatus s);

/// \brief One member as shipped in join/gossip/notify bodies.
struct MemberEntry {
  NetAddress addr;
  /// Startup timestamp of the member's process (ms since epoch works;
  /// any value that grows across restarts does). Higher wins a merge.
  uint64_t incarnation = 0;
  MemberStatus status = MemberStatus::kAlive;

  bool operator==(const MemberEntry&) const = default;
};

void EncodeMemberEntry(const MemberEntry& e, wire::Encoder* enc);
Result<MemberEntry> DecodeMemberEntry(wire::Decoder* dec);

/// Most member entries one view message may carry; a hostile count
/// beyond this is rejected before any allocation.
inline constexpr size_t kMaxViewEntries = 4096;

/// \brief A list of member entries — the body of kJoin, kLeave,
/// kNotify, kGetNeighbors, and kGossip messages (requests and
/// responses alike; an empty list is a pure "send me your view").
std::string EncodeViewMessage(const std::vector<MemberEntry>& entries);
Result<std::vector<MemberEntry>> DecodeViewMessage(std::string_view body);

// --------------------------------------------------------------------------
// Wrong-owner redirects
// --------------------------------------------------------------------------

/// \brief Builds the OutOfRange payload a node returns when a request
/// reaches it for a bucket it no longer owns: the address of the peer
/// the caller should retry at. The caller learns the member from the
/// redirect instead of failing (RingClient::Lookup/Publish).
std::string WrongOwnerMessage(const NetAddress& owner);

/// Parses a WrongOwnerMessage back; nullopt when `message` is not one.
std::optional<NetAddress> ParseWrongOwner(std::string_view message);

// --------------------------------------------------------------------------
// LiveMembership
// --------------------------------------------------------------------------

struct MembershipConfig {
  /// Period of the successor liveness probe (kPing).
  double probe_period_ms = 500.0;
  /// Period of the anti-entropy exchange with a random member.
  double gossip_period_ms = 1000.0;
  /// Period of the Chord stabilize/notify exchange with the successor.
  double stabilize_period_ms = 1000.0;
  /// Deadline of one asynchronous exchange, connect and send included;
  /// an exchange unanswered by then counts as a miss.
  double probe_timeout_ms = 250.0;
  /// Cap of the probe period's backoff while probes are failing.
  double backoff_max_ms = 5000.0;
  /// Dead/left tombstones are forgotten after this long.
  double tombstone_ttl_ms = 60000.0;
  /// Seed for the jitter/peer-choice Rng (P2P002: replayable).
  uint64_t seed = 1;

  // --- Partition tolerance (DESIGN.md §11) ---------------------------

  /// Halflife of the flap penalty (LiveMembership::NoteFlap).
  double flap_halflife_ms = 10000.0;
  /// Period of the post-partition reconciliation sweep: probe one
  /// random dead (never left) member; a reply resurrects it and the
  /// resulting view change triggers the re-replication diff
  /// (0 disables — a healed partition then stays split).
  double reconnect_period_ms = 2000.0;

  Status Validate() const;
};

/// \brief What changed in the view, for re-replication to act on.
struct ViewChange {
  NetAddress addr;
  MemberStatus status = MemberStatus::kAlive;
  bool was_alive = false;
  bool is_alive = false;
};

struct MembershipCounters {
  uint64_t probes_sent = 0;
  uint64_t probe_misses = 0;
  uint64_t gossip_rounds = 0;
  uint64_t stabilize_rounds = 0;
  uint64_t notifies_sent = 0;
  uint64_t members_marked_dead = 0;
  uint64_t joins_served = 0;
  uint64_t leaves_served = 0;
  uint64_t notifies_served = 0;
  uint64_t gossips_served = 0;
  uint64_t view_changes = 0;
  uint64_t entries_merged = 0;
  uint64_t bad_bodies = 0;
  uint64_t flap_suppressions = 0;    ///< members quarantined for flapping
  uint64_t flap_releases = 0;        ///< quarantines lifted (penalty decayed)
  uint64_t reconnect_probes = 0;     ///< dead members probed post-partition
  uint64_t members_resurrected = 0;  ///< dead members that answered one

  std::string ToJson() const;
};

class LiveMembership {
 public:
  /// `transport` must outlive this object. `incarnation` must grow
  /// across restarts of the same address (ms since epoch at startup).
  static Result<LiveMembership> Make(const NetAddress& self,
                                     uint64_t incarnation,
                                     MembershipConfig config,
                                     TcpTransport* transport);

  LiveMembership(LiveMembership&&) = default;
  LiveMembership& operator=(LiveMembership&&) = delete;
  LiveMembership(const LiveMembership&) = delete;
  LiveMembership& operator=(const LiveMembership&) = delete;

  // --- Server side (dispatched from NodeService::Handle) --------------

  Result<std::string> HandleJoin(std::string_view body);
  Result<std::string> HandleLeave(std::string_view body);
  Result<std::string> HandleNotify(std::string_view body);
  Result<std::string> HandleGetNeighbors(std::string_view body);
  Result<std::string> HandleGossip(std::string_view body);

  // --- Client side ----------------------------------------------------

  /// One synchronous join attempt against a bootstrap peer: announce
  /// self, merge the returned view. The daemon retries around this.
  Status Join(const NetAddress& bootstrap, double deadline_ms);

  /// One maintenance step: collect finished exchanges, start the probe
  /// / gossip / stabilize rounds that are due, expire old tombstones.
  /// Never blocks on a peer.
  void Tick();

  /// Announces a graceful departure to the current successor and
  /// predecessor (best effort, synchronous — the process is exiting).
  void AnnounceLeave(double deadline_ms);

  // --- View -----------------------------------------------------------

  const NetAddress& self() const { return self_; }
  chord::ChordId self_id() const { return self_id_; }

  /// Alive members (always includes self).
  std::vector<NetAddress> AliveAddresses() const;
  /// The alive members as a routing view.
  Result<RingView> AliveRing() const;
  size_t num_alive() const;

  /// Successor / predecessor of self on the alive ring; nullopt when
  /// self is the only member (a node alone is its own neighbor).
  std::optional<NetAddress> Successor() const;
  std::optional<NetAddress> Predecessor() const;

  /// Every entry (tombstones included), for gossip bodies and tests.
  std::vector<MemberEntry> Entries() const;

  /// Drains the accumulated alive/not-alive transitions.
  std::vector<ViewChange> TakeChanges();

  const MembershipCounters& counters() const { return counters_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Member {
    MemberEntry entry;
    Clock::time_point updated;
    int strikes = 0;
    Clock::time_point last_strike;  ///< when the newest strike landed
    double penalty = 0.0;           ///< decayed flap penalty (DESIGN.md §11)
    Clock::time_point penalty_at;   ///< instant `penalty` was last decayed to
    bool suppressed = false;        ///< quarantined by flap damping
  };

  enum class ExchangeKind {
    kProbe,
    kGossip,
    kStabilize,
    kNotifyCall,
    kReconnect,  ///< gossip aimed at a dead member (partition-heal sweep)
  };

  struct PendingExchange {
    ExchangeKind kind = ExchangeKind::kProbe;
    NetAddress to;
    uint64_t call_id = 0;
  };

  LiveMembership(const NetAddress& self, uint64_t incarnation,
                 MembershipConfig config, TcpTransport* transport);

  /// Folds one remote entry into the table. Returns true if the view
  /// changed (and records a ViewChange on alive transitions).
  bool Merge(const MemberEntry& e);
  void MergeAll(const std::vector<MemberEntry>& entries);

  /// A failed exchange with `to` (hard = connection refused/reset).
  void RecordMiss(const NetAddress& to, bool hard);
  void RecordContact(const NetAddress& to);

  void PollPending();
  void HandleExchangeReply(const PendingExchange& ex,
                           const TcpTransport::CallResult& result);
  void StartExchange(ExchangeKind kind, const NetAddress& to, MsgType type,
                     const std::string& body);
  void MaybeProbe(Clock::time_point now);
  void MaybeGossip(Clock::time_point now);
  void MaybeStabilize(Clock::time_point now);
  void MaybeReconnect(Clock::time_point now);
  void MaybeReleaseSuppressed(Clock::time_point now);
  void PruneTombstones(Clock::time_point now);

  /// A member counts as alive for routing/view purposes only when its
  /// status is alive AND flap damping is not quarantining it.
  bool Visible(const Member& m) const;
  /// Records a ViewChange iff the member's visible aliveness moved.
  void EmitIfVisibleChanged(const NetAddress& addr, const Member& m,
                            bool was_visible);
  /// One raw alive<->dead transition: bump the flap penalty, maybe
  /// enter quarantine.
  void NoteFlap(Member& m, Clock::time_point now);
  /// Decays `m.penalty` to `now` and returns the decayed value.
  double DecayPenalty(Member& m, Clock::time_point now);

  MemberEntry SelfEntry() const;
  /// period * [1-kJitter, 1+kJitter), as a duration.
  Clock::duration Jittered(double period_ms);
  std::vector<NetAddress> AliveOthers() const;

  NetAddress self_;
  chord::ChordId self_id_;
  uint64_t incarnation_;
  MembershipConfig config_;
  TcpTransport* transport_;
  Rng rng_;

  std::unordered_map<NetAddress, Member, NetAddressHash> others_;
  std::vector<PendingExchange> pending_;
  std::vector<ViewChange> changes_;
  MembershipCounters counters_;

  Clock::time_point next_probe_;
  Clock::time_point next_gossip_;
  Clock::time_point next_stabilize_;
  Clock::time_point next_reconnect_;
  int probe_miss_streak_ = 0;
};

}  // namespace rpc
}  // namespace p2prange

#endif  // P2PRANGE_RPC_MEMBERSHIP_H_
