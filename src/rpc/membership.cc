#include "rpc/membership.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rpc/tcp.h"

namespace p2prange {
namespace rpc {

namespace {

constexpr std::string_view kWrongOwnerPrefix = "wrong_owner ";

/// Minimum encoded size of a MemberEntry: one-byte host varint,
/// one-byte port varint, one-byte incarnation varint, one status byte.
constexpr size_t kMinEntryBytes = 4;

/// Strikes before a member is declared dead. A refused connection
/// (Unavailable) costs 2 strikes, a timeout (IOError) costs 1.
constexpr int kDeadAfterStrikes = 3;
/// Lossy-link forgiveness: a strike older than this is stale evidence
/// and no longer counts toward kDeadAfterStrikes.
constexpr double kStrikeDecayMs = 5000.0;
/// Backoff applied to the probe period while probes are failing:
/// period * multiplier^consecutive_misses, capped at backoff_max_ms.
constexpr double kBackoffMultiplier = 2.0;
/// Fraction of every period randomized (both directions), so a fleet
/// of daemons started together does not probe in lockstep.
constexpr double kJitter = 0.3;
/// Flap damping: every alive<->dead transition of a member adds
/// kFlapPenalty; the total decays exponentially with halflife
/// flap_halflife_ms. At/above kFlapSuppress the member is quarantined —
/// held out of the alive set and silent to view-change consumers (no
/// re-replication churn) — until the decayed penalty falls below
/// kFlapReuse. Decay runs even between back-to-back flaps, so N rapid
/// flaps sum to just under N: thresholds sit between integers (2.5 =
/// "the third flap").
constexpr double kFlapPenalty = 1.0;
constexpr double kFlapSuppress = 2.5;
constexpr double kFlapReuse = 1.5;

bool StatusTrumps(MemberStatus a, MemberStatus b) {
  // More terminal wins a same-incarnation merge.
  return static_cast<uint8_t>(a) > static_cast<uint8_t>(b);
}

bool IsAliveStatus(MemberStatus s) {
  return s == MemberStatus::kAlive || s == MemberStatus::kSuspect;
}

}  // namespace

const char* MemberStatusName(MemberStatus s) {
  switch (s) {
    case MemberStatus::kAlive:
      return "alive";
    case MemberStatus::kSuspect:
      return "suspect";
    case MemberStatus::kDead:
      return "dead";
    case MemberStatus::kLeft:
      return "left";
  }
  return "unknown";
}

// --------------------------------------------------------------------------
// Wire form
// --------------------------------------------------------------------------

void EncodeMemberEntry(const MemberEntry& e, wire::Encoder* enc) {
  wire::EncodeNetAddress(e.addr, enc);
  enc->PutVarint(e.incarnation);
  enc->PutU8(static_cast<uint8_t>(e.status));
}

Result<MemberEntry> DecodeMemberEntry(wire::Decoder* dec) {
  MemberEntry e;
  ASSIGN_OR_RETURN(e.addr, wire::DecodeNetAddress(dec));
  ASSIGN_OR_RETURN(e.incarnation, dec->Varint());
  ASSIGN_OR_RETURN(const uint8_t raw_status, dec->U8());
  if (raw_status > static_cast<uint8_t>(MemberStatus::kLeft)) {
    return Status::InvalidArgument("unknown member status " +
                                   std::to_string(raw_status));
  }
  e.status = static_cast<MemberStatus>(raw_status);
  return e;
}

std::string EncodeViewMessage(const std::vector<MemberEntry>& entries) {
  wire::Encoder enc;
  enc.PutVarint(entries.size());
  for (const MemberEntry& e : entries) EncodeMemberEntry(e, &enc);
  return enc.Take();
}

Result<std::vector<MemberEntry>> DecodeViewMessage(std::string_view body) {
  wire::Decoder dec(body);
  ASSIGN_OR_RETURN(const size_t n,
                   dec.GuardedCount(kMinEntryBytes, kMaxViewEntries));
  std::vector<MemberEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ASSIGN_OR_RETURN(MemberEntry e, DecodeMemberEntry(&dec));
    entries.push_back(e);
  }
  if (!dec.AtEnd()) return Status::InvalidArgument("trailing view bytes");
  return entries;
}

// --------------------------------------------------------------------------
// Wrong-owner redirects
// --------------------------------------------------------------------------

std::string WrongOwnerMessage(const NetAddress& owner) {
  return std::string(kWrongOwnerPrefix) + owner.ToString();
}

std::optional<NetAddress> ParseWrongOwner(std::string_view message) {
  if (message.substr(0, kWrongOwnerPrefix.size()) != kWrongOwnerPrefix) {
    return std::nullopt;
  }
  auto addr = ParseHostPort(message.substr(kWrongOwnerPrefix.size()));
  if (!addr.ok()) return std::nullopt;
  return *addr;
}

// --------------------------------------------------------------------------
// MembershipConfig / counters
// --------------------------------------------------------------------------

Status MembershipConfig::Validate() const {
  if (probe_period_ms <= 0.0 || gossip_period_ms <= 0.0 ||
      stabilize_period_ms <= 0.0 || probe_timeout_ms <= 0.0) {
    return Status::InvalidArgument("membership periods must be > 0");
  }
  if (backoff_max_ms < probe_period_ms) {
    return Status::InvalidArgument("backoff_max_ms must cover one period");
  }
  if (tombstone_ttl_ms <= 0.0) {
    return Status::InvalidArgument("tombstone_ttl_ms must be > 0");
  }
  if (flap_halflife_ms <= 0.0) {
    return Status::InvalidArgument("flap_halflife_ms must be > 0");
  }
  if (reconnect_period_ms < 0.0) {
    return Status::InvalidArgument("reconnect_period_ms must be >= 0");
  }
  return Status::OK();
}

std::string MembershipCounters::ToJson() const {
  std::string out = "{";
  out += "\"probes_sent\":" + std::to_string(probes_sent);
  out += ",\"probe_misses\":" + std::to_string(probe_misses);
  out += ",\"gossip_rounds\":" + std::to_string(gossip_rounds);
  out += ",\"stabilize_rounds\":" + std::to_string(stabilize_rounds);
  out += ",\"notifies_sent\":" + std::to_string(notifies_sent);
  out += ",\"members_marked_dead\":" + std::to_string(members_marked_dead);
  out += ",\"joins_served\":" + std::to_string(joins_served);
  out += ",\"leaves_served\":" + std::to_string(leaves_served);
  out += ",\"notifies_served\":" + std::to_string(notifies_served);
  out += ",\"gossips_served\":" + std::to_string(gossips_served);
  out += ",\"view_changes\":" + std::to_string(view_changes);
  out += ",\"entries_merged\":" + std::to_string(entries_merged);
  out += ",\"bad_bodies\":" + std::to_string(bad_bodies);
  out += ",\"flap_suppressions\":" + std::to_string(flap_suppressions);
  out += ",\"flap_releases\":" + std::to_string(flap_releases);
  out += ",\"reconnect_probes\":" + std::to_string(reconnect_probes);
  out += ",\"members_resurrected\":" + std::to_string(members_resurrected);
  out += "}";
  return out;
}

// --------------------------------------------------------------------------
// LiveMembership
// --------------------------------------------------------------------------

LiveMembership::LiveMembership(const NetAddress& self, uint64_t incarnation,
                               MembershipConfig config,
                               TcpTransport* transport)
    : self_(self),
      self_id_(RingView::IdOf(self)),
      incarnation_(incarnation),
      config_(config),
      transport_(transport),
      rng_(config.seed) {
  const auto now = Clock::now();
  // First rounds are jittered from the start so a batch of daemons
  // launched together desynchronizes immediately.
  next_probe_ = now + Jittered(config_.probe_period_ms);
  next_gossip_ = now + Jittered(config_.gossip_period_ms);
  next_stabilize_ = now + Jittered(config_.stabilize_period_ms);
  next_reconnect_ = config_.reconnect_period_ms > 0.0
                        ? now + Jittered(config_.reconnect_period_ms)
                        : now;
}

Result<LiveMembership> LiveMembership::Make(const NetAddress& self,
                                            uint64_t incarnation,
                                            MembershipConfig config,
                                            TcpTransport* transport) {
  RETURN_NOT_OK(config.Validate());
  if (transport == nullptr) {
    return Status::InvalidArgument("membership needs a transport");
  }
  return LiveMembership(self, incarnation, config, transport);
}

MemberEntry LiveMembership::SelfEntry() const {
  return MemberEntry{self_, incarnation_, MemberStatus::kAlive};
}

LiveMembership::Clock::duration LiveMembership::Jittered(double period_ms) {
  const double factor = 1.0 - kJitter + 2.0 * kJitter * rng_.NextDouble();
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(period_ms * factor));
}

std::vector<MemberEntry> LiveMembership::Entries() const {
  std::vector<MemberEntry> out;
  out.reserve(others_.size() + 1);
  out.push_back(SelfEntry());
  for (const auto& [addr, m] : others_) out.push_back(m.entry);
  return out;
}

std::vector<NetAddress> LiveMembership::AliveOthers() const {
  std::vector<NetAddress> out;
  for (const auto& [addr, m] : others_) {
    if (Visible(m)) out.push_back(addr);
  }
  return out;
}

bool LiveMembership::Visible(const Member& m) const {
  return IsAliveStatus(m.entry.status) && !m.suppressed;
}

void LiveMembership::EmitIfVisibleChanged(const NetAddress& addr,
                                          const Member& m, bool was_visible) {
  const bool is_visible = Visible(m);
  if (was_visible == is_visible) return;
  changes_.push_back(ViewChange{addr, m.entry.status, was_visible, is_visible});
  ++counters_.view_changes;
}

double LiveMembership::DecayPenalty(Member& m, Clock::time_point now) {
  if (m.penalty <= 0.0) {
    m.penalty_at = now;
    return 0.0;
  }
  const double dt_ms =
      std::chrono::duration<double, std::milli>(now - m.penalty_at).count();
  if (dt_ms > 0.0) {
    m.penalty *= std::exp2(-dt_ms / config_.flap_halflife_ms);
    m.penalty_at = now;
  }
  return m.penalty;
}

void LiveMembership::NoteFlap(Member& m, Clock::time_point now) {
  DecayPenalty(m, now);
  m.penalty += kFlapPenalty;
  if (!m.suppressed && m.penalty >= kFlapSuppress) {
    m.suppressed = true;
    ++counters_.flap_suppressions;
  }
}

std::vector<NetAddress> LiveMembership::AliveAddresses() const {
  std::vector<NetAddress> out = AliveOthers();
  out.push_back(self_);
  return out;
}

Result<RingView> LiveMembership::AliveRing() const {
  return RingView::Make(AliveAddresses());
}

size_t LiveMembership::num_alive() const { return AliveOthers().size() + 1; }

std::optional<NetAddress> LiveMembership::Successor() const {
  auto ring = AliveRing();
  if (!ring.ok() || ring->size() < 2) return std::nullopt;
  return ring->SuccessorOf(self_id_);
}

std::optional<NetAddress> LiveMembership::Predecessor() const {
  auto ring = AliveRing();
  if (!ring.ok() || ring->size() < 2) return std::nullopt;
  return ring->PredecessorOf(self_id_);
}

std::vector<ViewChange> LiveMembership::TakeChanges() {
  return std::exchange(changes_, {});
}

bool LiveMembership::Merge(const MemberEntry& e) {
  if (e.addr == self_) {
    // A rumor that we are suspect/dead/left: refute it by outbidding
    // the rumor's incarnation. Our next gossip spreads the correction.
    if (e.status != MemberStatus::kAlive && e.incarnation >= incarnation_) {
      incarnation_ = e.incarnation + 1;
    }
    return false;
  }
  auto it = others_.find(e.addr);
  const auto now = Clock::now();
  if (it == others_.end()) {
    Member m;
    m.entry = e;
    m.updated = now;
    m.penalty_at = now;
    auto [pos, inserted] = others_.emplace(e.addr, std::move(m));
    (void)inserted;
    EmitIfVisibleChanged(e.addr, pos->second, /*was_visible=*/false);
    ++counters_.entries_merged;
    return true;
  }
  Member& member = it->second;
  MemberEntry& cur = member.entry;
  const bool newer =
      e.incarnation > cur.incarnation ||
      (e.incarnation == cur.incarnation && StatusTrumps(e.status, cur.status));
  if (!newer) return false;
  const MemberStatus prev_status = cur.status;
  const bool was_alive = IsAliveStatus(prev_status);
  const bool was_visible = Visible(member);
  const bool is_alive = IsAliveStatus(e.status);
  const bool fresh_incarnation = e.incarnation > cur.incarnation;
  cur = e;
  member.updated = now;
  if (fresh_incarnation || is_alive) member.strikes = 0;
  // An alive<->dead oscillation feeds the flap damper; graceful
  // departures (kLeft) are deliberate and never penalized.
  if (was_alive != is_alive && (e.status == MemberStatus::kDead ||
                                prev_status == MemberStatus::kDead)) {
    NoteFlap(member, now);
  }
  EmitIfVisibleChanged(e.addr, member, was_visible);
  ++counters_.entries_merged;
  return true;
}

void LiveMembership::MergeAll(const std::vector<MemberEntry>& entries) {
  for (const MemberEntry& e : entries) Merge(e);
}

void LiveMembership::RecordContact(const NetAddress& to) {
  auto it = others_.find(to);
  if (it == others_.end()) return;
  it->second.strikes = 0;
  it->second.updated = Clock::now();
  if (it->second.entry.status == MemberStatus::kSuspect) {
    it->second.entry.status = MemberStatus::kAlive;
  }
}

void LiveMembership::RecordMiss(const NetAddress& to, bool hard) {
  auto it = others_.find(to);
  if (it == others_.end()) return;
  Member& m = it->second;
  if (!IsAliveStatus(m.entry.status)) return;  // already written off
  ++counters_.probe_misses;
  const auto now = Clock::now();
  // Lossy-link forgiveness: strikes older than kStrikeDecayMs are
  // stale evidence — a link dropping one probe in ten should suspect
  // the member occasionally, not walk it to its death over minutes.
  if (m.strikes > 0 &&
      now - m.last_strike > std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    kStrikeDecayMs))) {
    m.strikes = 0;
  }
  m.last_strike = now;
  m.strikes += hard ? 2 : 1;
  if (m.strikes < kDeadAfterStrikes) {
    m.entry.status = MemberStatus::kSuspect;
    return;
  }
  // Declared dead under the entry's current incarnation; if the member
  // is actually alive it will refute with a higher incarnation.
  const bool was_visible = Visible(m);
  m.entry.status = MemberStatus::kDead;
  m.updated = now;
  ++counters_.members_marked_dead;
  NoteFlap(m, now);
  EmitIfVisibleChanged(to, m, was_visible);
  transport_->Disconnect(to);
}

// --- Server side ------------------------------------------------------

Result<std::string> LiveMembership::HandleJoin(std::string_view body) {
  auto entries = DecodeViewMessage(body);
  if (!entries.ok()) {
    ++counters_.bad_bodies;
    return entries.status();
  }
  MergeAll(*entries);
  ++counters_.joins_served;
  return EncodeViewMessage(Entries());
}

Result<std::string> LiveMembership::HandleLeave(std::string_view body) {
  auto entries = DecodeViewMessage(body);
  if (!entries.ok()) {
    ++counters_.bad_bodies;
    return entries.status();
  }
  MergeAll(*entries);
  ++counters_.leaves_served;
  return std::string();
}

Result<std::string> LiveMembership::HandleNotify(std::string_view body) {
  auto entries = DecodeViewMessage(body);
  if (!entries.ok()) {
    ++counters_.bad_bodies;
    return entries.status();
  }
  MergeAll(*entries);
  ++counters_.notifies_served;
  return std::string();
}

Result<std::string> LiveMembership::HandleGetNeighbors(std::string_view body) {
  if (!body.empty()) {
    auto entries = DecodeViewMessage(body);
    if (!entries.ok()) {
      ++counters_.bad_bodies;
      return entries.status();
    }
    MergeAll(*entries);
  }
  // Predecessor, self, successor — the stabilize triple. With no other
  // member the triple collapses to self alone.
  std::vector<MemberEntry> out;
  const auto pred = Predecessor();
  const auto succ = Successor();
  if (pred.has_value()) {
    auto it = others_.find(*pred);
    if (it != others_.end()) out.push_back(it->second.entry);
  }
  out.push_back(SelfEntry());
  if (succ.has_value() && succ != pred) {
    auto it = others_.find(*succ);
    if (it != others_.end()) out.push_back(it->second.entry);
  }
  return EncodeViewMessage(out);
}

Result<std::string> LiveMembership::HandleGossip(std::string_view body) {
  auto entries = DecodeViewMessage(body);
  if (!entries.ok()) {
    ++counters_.bad_bodies;
    return entries.status();
  }
  MergeAll(*entries);
  ++counters_.gossips_served;
  return EncodeViewMessage(Entries());
}

// --- Client side ------------------------------------------------------

Status LiveMembership::Join(const NetAddress& bootstrap, double deadline_ms) {
  if (bootstrap == self_) {
    return Status::InvalidArgument("cannot bootstrap from self");
  }
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = deadline_ms;
  const std::string body = EncodeViewMessage({SelfEntry()});
  ASSIGN_OR_RETURN(TcpTransport::CallResult result,
                   transport_->Call(bootstrap, MsgType::kJoin, body,
                                    call_options));
  ASSIGN_OR_RETURN(std::vector<MemberEntry> view,
                   DecodeViewMessage(result.body));
  MergeAll(view);
  // The bootstrap peer answered; make sure it is in the table even if
  // it somehow omitted itself.
  Merge(MemberEntry{bootstrap, 0, MemberStatus::kAlive});
  RecordContact(bootstrap);
  return Status::OK();
}

void LiveMembership::AnnounceLeave(double deadline_ms) {
  // Departure entry under a bumped incarnation so it beats any alive
  // rumor of us still circulating.
  ++incarnation_;
  const std::string body =
      EncodeViewMessage({MemberEntry{self_, incarnation_, MemberStatus::kLeft}});
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = deadline_ms;
  std::vector<NetAddress> targets;
  if (const auto succ = Successor()) targets.push_back(*succ);
  if (const auto pred = Predecessor()) {
    if (targets.empty() || targets.front() != *pred) targets.push_back(*pred);
  }
  for (const NetAddress& to : targets) {
    // Best effort — the process is exiting either way; an unreachable
    // neighbor will learn of the departure from the failure detector.
    transport_->Call(to, MsgType::kLeave, body, call_options)
        .status()
        .IgnoreError();
  }
}

void LiveMembership::StartExchange(ExchangeKind kind, const NetAddress& to,
                                   MsgType type, const std::string& body) {
  // probe_timeout_ms bounds the whole exchange (connect, send and the
  // wait); the transport reports the expiry from PollCall.
  TcpTransport::CallOptions call_options;
  call_options.deadline_ms = config_.probe_timeout_ms;
  auto started = transport_->StartCall(to, type, body, call_options);
  if (!started.ok()) {
    RecordMiss(to, started.status().IsUnavailable());
    return;
  }
  pending_.push_back(PendingExchange{kind, to, *started});
}

void LiveMembership::HandleExchangeReply(
    const PendingExchange& ex, const TcpTransport::CallResult& result) {
  RecordContact(ex.to);
  switch (ex.kind) {
    case ExchangeKind::kProbe:
    case ExchangeKind::kNotifyCall:
      return;  // liveness was the payload
    case ExchangeKind::kGossip: {
      auto entries = DecodeViewMessage(result.body);
      if (entries.ok()) MergeAll(*entries);
      return;
    }
    case ExchangeKind::kReconnect: {
      // A dead member answered: the partition healed. Our request body
      // carried its dead@N tombstone, which the member refuted by
      // bumping its own incarnation before replying, so merging the
      // reply resurrects it through the ordinary incarnation rules and
      // the visible transition triggers the re-replication diff.
      auto entries = DecodeViewMessage(result.body);
      if (!entries.ok()) return;
      const auto it = others_.find(ex.to);
      const bool was_dead =
          it != others_.end() && it->second.entry.status == MemberStatus::kDead;
      MergeAll(*entries);
      const auto after = others_.find(ex.to);
      if (was_dead && after != others_.end() &&
          IsAliveStatus(after->second.entry.status)) {
        ++counters_.members_resurrected;
      }
      return;
    }
    case ExchangeKind::kStabilize: {
      auto entries = DecodeViewMessage(result.body);
      if (!entries.ok()) return;
      MergeAll(*entries);
      // Chord stabilize step 2: tell the (possibly new) successor that
      // we might be its predecessor.
      if (const auto succ = Successor()) {
        ++counters_.notifies_sent;
        StartExchange(ExchangeKind::kNotifyCall, *succ, MsgType::kNotify,
                      EncodeViewMessage({SelfEntry()}));
      }
      return;
    }
  }
}

void LiveMembership::PollPending() {
  // Reply handlers may start follow-up exchanges (stabilize answers
  // with a notify), which append to pending_ — so iterate a swapped-out
  // batch, never the member, or the push_back reallocates the buffer
  // under the element being handled. Follow-ups land in the emptied
  // pending_ and are polled next tick; still-in-flight entries are
  // pushed back after them.
  std::vector<PendingExchange> batch;
  batch.swap(pending_);
  for (const PendingExchange& ex : batch) {
    auto polled = transport_->PollCall(ex.call_id);
    if (polled.ok() && !polled->has_value()) {
      pending_.push_back(ex);
      continue;
    }
    if (!polled.ok()) {
      // A refused or reset connection is a hard miss. An exchange
      // unanswered past its deadline (IOError) is a soft one; the
      // transport drops its late reply.
      RecordMiss(ex.to, polled.status().IsUnavailable());
      if (ex.kind == ExchangeKind::kProbe) ++probe_miss_streak_;
      continue;
    }
    if (ex.kind == ExchangeKind::kProbe) probe_miss_streak_ = 0;
    HandleExchangeReply(ex, **polled);
  }
}

void LiveMembership::MaybeProbe(Clock::time_point now) {
  if (now < next_probe_) return;
  // Exponential backoff while probes keep missing, so a wedged
  // neighborhood is not hammered; jitter keeps the fleet desynced.
  double period = config_.probe_period_ms;
  for (int i = 0; i < probe_miss_streak_ && period < config_.backoff_max_ms;
       ++i) {
    period *= kBackoffMultiplier;
  }
  period = std::min(period, config_.backoff_max_ms);
  next_probe_ = now + Jittered(period);

  const auto alive = AliveOthers();
  if (alive.empty()) return;
  // Mostly the successor (ring repair cares about it most), sometimes
  // a random member so isolated failures are still noticed.
  NetAddress target;
  const auto succ = Successor();
  if (succ.has_value() && rng_.NextBounded(4) != 0) {
    target = *succ;
  } else {
    target = alive[rng_.NextBounded(alive.size())];
  }
  ++counters_.probes_sent;
  StartExchange(ExchangeKind::kProbe, target, MsgType::kPing, std::string());
}

void LiveMembership::MaybeGossip(Clock::time_point now) {
  if (now < next_gossip_) return;
  next_gossip_ = now + Jittered(config_.gossip_period_ms);
  const auto alive = AliveOthers();
  if (alive.empty()) return;
  const NetAddress target = alive[rng_.NextBounded(alive.size())];
  ++counters_.gossip_rounds;
  StartExchange(ExchangeKind::kGossip, target, MsgType::kGossip,
                EncodeViewMessage(Entries()));
}

void LiveMembership::MaybeStabilize(Clock::time_point now) {
  if (now < next_stabilize_) return;
  next_stabilize_ = now + Jittered(config_.stabilize_period_ms);
  const auto succ = Successor();
  if (!succ.has_value()) return;
  ++counters_.stabilize_rounds;
  StartExchange(ExchangeKind::kStabilize, *succ, MsgType::kGetNeighbors,
                EncodeViewMessage({SelfEntry()}));
}

void LiveMembership::MaybeReconnect(Clock::time_point now) {
  if (config_.reconnect_period_ms <= 0.0) return;
  if (now < next_reconnect_) return;
  next_reconnect_ = now + Jittered(config_.reconnect_period_ms);
  // Probe one random dead member with a full gossip exchange. Probes
  // and gossip only ever target alive members, so without this sweep a
  // partition outlasting the failure detector would be permanent: both
  // sides hold dead tombstones and never speak again. kLeft members
  // said goodbye on purpose and are not courted back.
  std::vector<NetAddress> dead;
  for (const auto& [addr, m] : others_) {
    if (m.entry.status == MemberStatus::kDead) dead.push_back(addr);
  }
  if (dead.empty()) return;
  const NetAddress target = dead[rng_.NextBounded(dead.size())];
  ++counters_.reconnect_probes;
  StartExchange(ExchangeKind::kReconnect, target, MsgType::kGossip,
                EncodeViewMessage(Entries()));
}

void LiveMembership::MaybeReleaseSuppressed(Clock::time_point now) {
  for (auto& [addr, m] : others_) {
    if (!m.suppressed) continue;
    if (DecayPenalty(m, now) >= kFlapReuse) continue;
    // Quarantine over: the member held one story long enough for the
    // penalty to decay. If its status is alive it re-enters the ring.
    m.suppressed = false;
    ++counters_.flap_releases;
    EmitIfVisibleChanged(addr, m, /*was_visible=*/false);
  }
}

void LiveMembership::PruneTombstones(Clock::time_point now) {
  const auto ttl = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(config_.tombstone_ttl_ms));
  // An isolated node (no visible-alive peer at all) keeps its dead
  // tombstones past the TTL: they are the reconnect sweep's only
  // candidate list, i.e. its only way back after a long partition.
  // Graceful kLeft departures still age out unconditionally.
  const bool isolated = AliveOthers().empty();
  std::erase_if(others_, [&](const auto& kv) {
    const Member& m = kv.second;
    if (IsAliveStatus(m.entry.status)) return false;
    if (isolated && m.entry.status == MemberStatus::kDead) return false;
    return now - m.updated > ttl;
  });
}

void LiveMembership::Tick() {
  const auto now = Clock::now();
  PollPending();
  MaybeReleaseSuppressed(now);
  MaybeProbe(now);
  MaybeGossip(now);
  MaybeStabilize(now);
  MaybeReconnect(now);
  PruneTombstones(now);
}

}  // namespace rpc
}  // namespace p2prange
