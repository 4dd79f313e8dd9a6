#include "core/system.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.h"
#include "core/coverage.h"
#include "hash/sha1.h"
#include "wire/serde.h"

namespace p2prange {

bool RangeCacheSystem::BudgetExhausted(OpBudget* budget) {
  if (budget == nullptr || config_.fault.op_budget_ms <= 0.0) return false;
  if (budget->spent_ms < config_.fault.op_budget_ms) return false;
  if (!budget->exhausted) {
    budget->exhausted = true;
    ++metrics_.budget_exhausted;
  }
  return true;
}

Result<double> RangeCacheSystem::DeliverWithPolicy(const NetAddress& from,
                                                   const NetAddress& to,
                                                   uint64_t payload_bytes,
                                                   OpBudget* budget) {
  const FaultPolicy& policy = config_.fault;
  double total = 0.0;
  double wait = FaultPolicy::kBackoffBaseMs;
  Status last;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff before the retransmission; the wait is
      // simulated time the operation spends doing nothing, so it is
      // charged as latency like any network delay.
      double pause = std::min(wait, FaultPolicy::kBackoffMaxMs);
      pause *= 1.0 - FaultPolicy::kBackoffJitter +
               FaultPolicy::kBackoffJitter * rng_.NextDouble();
      total += pause;
      metrics_.backoff_latency_ms += pause;
      wait *= FaultPolicy::kBackoffMultiplier;
      ++metrics_.retransmissions;
    }
    auto latency = overlay_->DeliverBytes(from, to, payload_bytes);
    if (latency.ok()) {
      total += *latency;
      if (budget != nullptr) budget->spent_ms += total;
      return total;
    }
    last = latency.status();
    if (!last.IsIOError()) break;  // dead peer: retrying is futile
    if (budget != nullptr && config_.fault.op_budget_ms > 0.0 &&
        budget->spent_ms + total >= config_.fault.op_budget_ms) {
      break;  // out of time: give up instead of stalling the operation
    }
  }
  if (budget != nullptr) {
    budget->spent_ms += total;
    (void)BudgetExhausted(budget);
  }
  return last;
}

RangeCacheSystem::RangeCacheSystem(const SystemConfig& config, Catalog catalog)
    : config_(config),
      catalog_(std::move(catalog)),
      padding_controller_(config.adaptive),
      rng_(config.seed ^ 0xfa017edULL) {}

Result<RangeCacheSystem> RangeCacheSystem::Make(const SystemConfig& config,
                                                Catalog catalog) {
  if (!std::isfinite(config.padding) || config.padding < 0.0) {
    return Status::InvalidArgument("padding must be finite and non-negative");
  }
  if (!std::isfinite(config.adaptive.initial) || config.adaptive.initial < 0.0) {
    return Status::InvalidArgument(
        "adaptive.initial must be finite and non-negative");
  }
  if (config.descriptor_replication < 1) {
    return Status::InvalidArgument("descriptor_replication must be >= 1");
  }
  RETURN_NOT_OK(config.fault.Validate());
  RangeCacheSystem sys(config, std::move(catalog));

  ASSIGN_OR_RETURN(sys.overlay_,
                   overlay::MakeOverlay(config.overlay, config.num_peers,
                                        config.seed));

  LshParams lsh_params = config.lsh;
  lsh_params.seed = config.seed ^ 0x5bd1e995u;
  ASSIGN_OR_RETURN(LshScheme scheme, LshScheme::Make(lsh_params));
  sys.lsh_ = std::make_unique<LshScheme>(std::move(scheme));

  const auto nodes = sys.overlay_->AlivePeersOrdered();
  for (const overlay::PeerInfo& info : nodes) {
    sys.peers_.emplace(info.addr,
                       std::make_unique<Peer>(info, config.store_capacity));
  }
  sys.source_ = nodes.front().addr;
  return sys;
}

Peer* RangeCacheSystem::peer(const NetAddress& addr) {
  auto it = peers_.find(addr);
  return it == peers_.end() ? nullptr : it->second.get();
}

const Peer* RangeCacheSystem::peer(const NetAddress& addr) const {
  auto it = peers_.find(addr);
  return it == peers_.end() ? nullptr : it->second.get();
}

Result<AttributeDomain> RangeCacheSystem::DomainFor(const PartitionKey& key) const {
  return catalog_.GetDomain(key.relation, key.attribute);
}

Result<Range> RangeCacheSystem::EffectiveRange(const PartitionKey& key) const {
  const double padding =
      config_.adaptive_padding
          ? padding_controller_.Get(key.relation + "." + key.attribute)
          : config_.padding;
  if (padding <= 0.0) return key.range;
  ASSIGN_OR_RETURN(const AttributeDomain domain, DomainFor(key));
  const uint32_t width_hi = static_cast<uint32_t>(domain.width() - 1);
  return key.range.Padded(padding, 0, width_hi);
}

Status RangeCacheSystem::TransferData(const NetAddress& client,
                                      const NetAddress& server,
                                      const Relation& payload, bool from_source) {
  // Request (control) + response carrying the encoded tuples; both
  // legs retransmit on transit loss under the fault policy.
  auto req = DeliverWithPolicy(client, server, 0, nullptr);
  RETURN_NOT_OK(req.status());
  const size_t bytes = wire::RelationWireSize(payload);
  auto resp = DeliverWithPolicy(server, client, bytes, nullptr);
  RETURN_NOT_OK(resp.status());
  metrics_.latency_ms += *req + *resp;
  if (from_source) {
    metrics_.bytes_from_source += bytes;
  } else {
    metrics_.bytes_from_cache += bytes;
  }
  return Status::OK();
}

Result<std::optional<Relation>> RangeCacheSystem::FetchCoverage(
    const NetAddress& client, const std::vector<PartitionDescriptor>& pieces) {
  if (pieces.empty()) return std::optional<Relation>(std::nullopt);
  // All pieces must be materialized at a *reachable* holder before any
  // bytes move; a dead or empty holder degrades the whole assembly
  // (the caller falls back to a single match or the source).
  std::vector<const Relation*> datas;
  datas.reserve(pieces.size());
  for (const PartitionDescriptor& piece : pieces) {
    if (!overlay_->IsAlive(piece.holder)) {
      return std::optional<Relation>(std::nullopt);
    }
    const Peer* holder = peer(piece.holder);
    const Relation* data = holder ? holder->GetPartitionData(piece.key) : nullptr;
    if (data == nullptr) return std::optional<Relation>(std::nullopt);
    datas.push_back(data);
  }
  std::optional<Relation> merged;
  std::set<std::string> seen_rows;
  for (size_t i = 0; i < pieces.size(); ++i) {
    const Status shipped = TransferData(client, pieces[i].holder, *datas[i],
                                        /*from_source=*/false);
    // A holder crashing mid-assembly (or retries running dry) is a
    // degradation, not a query failure.
    if (!shipped.ok()) return std::optional<Relation>(std::nullopt);
    if (!merged) merged = Relation(datas[i]->name(), datas[i]->schema());
    for (const Row& row : datas[i]->rows()) {
      // Overlapping partitions duplicate tuples; dedup by encoding.
      wire::Encoder enc;
      for (const Value& v : row) wire::EncodeValue(v, &enc);
      if (seen_rows.insert(enc.Take()).second) {
        merged->AppendUnchecked(row);
      }
    }
  }
  return merged;
}


Result<RangeLookupOutcome> RangeCacheSystem::LookupRange(const PartitionKey& query) {
  ASSIGN_OR_RETURN(const NetAddress origin, overlay_->RandomAliveAddress());
  return LookupRangeFrom(origin, query);
}

Result<RangeLookupOutcome> RangeCacheSystem::LookupRangeFrom(
    const NetAddress& origin, const PartitionKey& query) {
  if (peer(origin) == nullptr) {
    return Status::InvalidArgument("unknown origin peer " + origin.ToString());
  }
  if (!overlay_->IsAlive(origin)) {
    return Status::InvalidArgument("origin peer " + origin.ToString() +
                                   " is down");
  }
  RangeLookupOutcome out;
  out.query = query.range;
  ASSIGN_OR_RETURN(out.effective_query, EffectiveRange(query));
  const PartitionKey effective_key{query.relation, query.attribute,
                                   out.effective_query};
  // Batched: all l group signatures in one pass over the flat function
  // table, written straight into the outcome's buffer.
  lsh_->IdentifiersInto(out.effective_query, &out.identifiers);

  ++metrics_.range_lookups;

  // Route to each identifier's owner and collect its best match. A
  // probe that cannot be answered — routing failed, the owner crashed
  // mid-query, its reply was lost beyond the retry budget — degrades
  // the fan-out instead of failing it: the lookup returns the best
  // match among the groups that did answer.
  OpBudget budget;
  std::vector<MatchCandidate> candidates;
  std::set<NetAddress> owners_seen;
  std::vector<MatchCandidate> coverage_candidates;

  // Probes one replica's bucket; commits its candidate and coverage
  // contributions only once the reply reaches the origin.
  auto probe_replica = [&](const NetAddress& target, chord::ChordId id) -> bool {
    Peer* owner_peer = peer(target);
    if (owner_peer == nullptr || !overlay_->IsAlive(target)) return false;
    // Dead holders make their descriptors stale; the probing owner
    // evicts them on sight (lazy repair) and serves the next-best.
    std::optional<MatchCandidate> candidate;
    for (;;) {
      candidate = config_.use_peer_index
                      ? owner_peer->store().BestMatchAnywhere(effective_key,
                                                              config_.criterion)
                      : owner_peer->store().BestMatch(id, effective_key,
                                                      config_.criterion);
      if (!candidate || overlay_->IsAlive(candidate->descriptor.holder)) {
        break;
      }
      // The loop ends because every pass removes the entry it was given.
      const size_t erased = owner_peer->EraseStaleDescriptors(
          candidate->descriptor.key, candidate->descriptor.holder);
      DCHECK_GT(erased, 0u);
      metrics_.stale_evictions += erased;
    }
    std::vector<MatchCandidate> overlapping;
    if (config_.assemble_coverage) {
      for (MatchCandidate& c : owner_peer->store().OverlappingCandidates(
               id, effective_key, config_.criterion)) {
        if (!overlay_->IsAlive(c.descriptor.holder)) {
          metrics_.stale_evictions += owner_peer->EraseStaleDescriptors(
              c.descriptor.key, c.descriptor.holder);
          continue;
        }
        overlapping.push_back(std::move(c));
      }
    }
    // The reply must actually arrive for the origin to learn anything.
    auto reply = DeliverWithPolicy(target, origin, 0, &budget);
    if (!reply.ok()) return false;
    out.latency_ms += *reply;
    metrics_.latency_ms += *reply;
    if (owners_seen.insert(target).second) {
      ++out.peers_contacted;
      out.probed_owners.push_back(target);
    }
    if (candidate) AddCandidateOnce(std::move(*candidate), &candidates);
    for (MatchCandidate& c : overlapping) {
      AddCandidateOnce(std::move(c), &coverage_candidates);
    }
    return true;
  };

  for (size_t g = 0; g < out.identifiers.size(); ++g) {
    if (BudgetExhausted(&budget)) {
      // Out of time: the remaining probes are abandoned.
      out.probes_failed += static_cast<int>(out.identifiers.size() - g);
      metrics_.probes_failed += out.identifiers.size() - g;
      break;
    }
    auto route = overlay_->RouteToOwner(origin, out.identifiers[g]);
    if (!route.ok()) {
      // Routing never reached this identifier's owner.
      ++out.probes_failed;
      ++metrics_.probes_failed;
      continue;
    }
    out.hops += route->hops;
    out.latency_ms += route->latency_ms;
    metrics_.chord_hops += route->hops;
    metrics_.latency_ms += route->latency_ms;
    budget.spent_ms += route->latency_ms;

    // Routing has committed to an owner; it may still die before it
    // answers (the probe below notices and fails over).
    if (step_hook_) step_hook_("probe");

    if (probe_replica(route->owner.addr, out.identifiers[g])) continue;

    // The owner is unreachable (crashed mid-query, or its reply was
    // lost beyond the retry budget). With replication its successors
    // hold copies of the bucket — fail over to them.
    bool answered = false;
    if (config_.descriptor_replication > 1) {
      int tried = 0;
      for (const overlay::PeerInfo& succ :
           overlay_->ReplicaCandidates(route->owner.addr)) {
        if (tried >= config_.descriptor_replication - 1) break;
        if (!overlay_->IsAlive(succ.addr)) continue;
        ++tried;
        if (step_hook_) step_hook_("failover");
        // One extra hop to reach the replica.
        auto fwd = DeliverWithPolicy(origin, succ.addr, 0, &budget);
        if (!fwd.ok()) continue;
        out.latency_ms += *fwd;
        metrics_.latency_ms += *fwd;
        ++out.hops;
        ++metrics_.chord_hops;
        if (probe_replica(succ.addr, out.identifiers[g])) {
          ++out.failovers;
          ++metrics_.probe_failovers;
          answered = true;
          break;
        }
      }
    }
    if (!answered) {
      ++out.probes_failed;
      ++metrics_.probes_failed;
    }
  }

  out.degraded = out.probes_failed > 0 || budget.exhausted;
  if (out.degraded) ++metrics_.degraded_lookups;

  // Rank the collected candidates best-first (the shared §4 rule).
  RankCandidates(&candidates);
  out.ranked.reserve(candidates.size());
  for (const MatchCandidate& c : candidates) {
    RangeMatch m;
    m.matched = c.descriptor.key;
    m.holder = c.descriptor.holder;
    m.score = c.similarity;
    m.jaccard = query.range.Jaccard(c.descriptor.key.range);
    m.recall = query.range.RecallFrom(c.descriptor.key.range);
    m.exact = c.descriptor.key.range == out.effective_query;
    out.ranked.push_back(std::move(m));
  }

  if (config_.assemble_coverage && !coverage_candidates.empty()) {
    std::vector<PartitionDescriptor> pieces;
    pieces.reserve(coverage_candidates.size());
    for (MatchCandidate& c : coverage_candidates) {
      pieces.push_back(std::move(c.descriptor));
    }
    CoverageResult cover = AssembleCoverage(query.range, std::move(pieces),
                                            config_.max_coverage_pieces);
    out.coverage_pieces = std::move(cover.pieces);
    out.coverage_recall = cover.covered_fraction;
  }

  if (config_.adaptive_padding) {
    padding_controller_.Observe(
        query.relation + "." + query.attribute,
        out.ranked.empty() ? 0.0 : out.ranked.front().recall);
  }

  if (!out.ranked.empty()) {
    out.match = out.ranked.front();
    if (out.match->exact) {
      ++metrics_.exact_hits;
    } else {
      ++metrics_.approx_hits;
    }
  } else {
    ++metrics_.misses;
  }

  // Cache-on-miss (§4): if no exact match exists, the computed
  // partition (the effective range, held by the origin) is stored at
  // the peers owning the l identifiers.
  if (config_.cache_on_miss && (!out.match || !out.match->exact)) {
    const PartitionDescriptor descriptor{effective_key, origin};
    ++metrics_.partitions_published;
    for (size_t g = 0; g < out.identifiers.size(); ++g) {
      StoreReplicated(out.identifiers[g], descriptor, origin, &out.latency_ms);
    }
  }
  return out;
}

void RangeCacheSystem::StoreReplicated(chord::ChordId id,
                                       const PartitionDescriptor& descriptor,
                                       const NetAddress& from,
                                       double* latency_acc) {
  // Resolve the current owner plus (replication - 1) of its live
  // successors; each replica costs one store message.
  auto owner_info = overlay_->OwnerOracle(id);
  if (!owner_info.ok()) return;
  std::vector<NetAddress> targets{owner_info->addr};
  for (const overlay::PeerInfo& succ :
       overlay_->ReplicaCandidates(owner_info->addr)) {
    if (static_cast<int>(targets.size()) >= config_.descriptor_replication) break;
    if (!overlay_->IsAlive(succ.addr)) continue;
    targets.push_back(succ.addr);
  }
  for (const NetAddress& target : targets) {
    Peer* target_peer = peer(target);
    if (target_peer == nullptr) continue;  // churned away mid-protocol
    // The store RPC must arrive before the descriptor exists there.
    auto msg = DeliverWithPolicy(from, target, 0, nullptr);
    if (!msg.ok()) continue;
    if (latency_acc != nullptr) *latency_acc += *msg;
    metrics_.latency_ms += *msg;
    if (target_peer->InsertDescriptor(id, descriptor)) {
      ++metrics_.descriptors_stored;
    }
  }
}

Status RangeCacheSystem::PublishPartition(const PartitionKey& key,
                                          const NetAddress& holder) {
  if (peer(holder) == nullptr) {
    return Status::InvalidArgument("unknown holder peer " + holder.ToString());
  }
  lsh_->IdentifiersInto(key.range, &identifier_scratch_);
  const PartitionDescriptor descriptor{key, holder};
  ++metrics_.partitions_published;
  for (uint32_t id : identifier_scratch_) {
    // A failed route skips this identifier's replicas (the partition
    // stays findable under the other l-1 identifiers).
    auto route = overlay_->RouteToOwner(holder, id);
    if (!route.ok()) continue;
    metrics_.chord_hops += route->hops;
    metrics_.latency_ms += route->latency_ms;
    StoreReplicated(id, descriptor, holder, nullptr);
  }
  return Status::OK();
}

Status RangeCacheSystem::MaterializePartition(const PartitionKey& key,
                                              const NetAddress& holder) {
  Peer* holder_peer = peer(holder);
  if (holder_peer == nullptr) {
    return Status::InvalidArgument("unknown holder peer " + holder.ToString());
  }
  ASSIGN_OR_RETURN(const Relation* base, catalog_.GetBaseData(key.relation));
  ASSIGN_OR_RETURN(const AttributeDomain domain, DomainFor(key));
  ASSIGN_OR_RETURN(
      Relation rows,
      base->SelectOrdinalRange(key.attribute, domain.DecodeLo(key.range),
                               domain.DecodeHi(key.range)));
  ++metrics_.source_fetches;
  RETURN_NOT_OK(TransferData(holder, source_, rows, /*from_source=*/true));
  holder_peer->StorePartitionData(key, std::move(rows));
  return Status::OK();
}

namespace {
std::string EqKeyString(const std::string& relation, const std::string& attribute,
                        const Value& v) {
  return relation + "|" + attribute + "|" + v.ToString();
}
}  // namespace

Status RangeCacheSystem::AnswerLeaf(const NetAddress& client,
                                    const TableSelection& leaf,
                                    std::map<std::string, Relation>* inputs,
                                    LeafOutcome* outcome) {
  outcome->table = leaf.table;

  const std::vector<RangeSelection> ranges = leaf.AllRanges();
  if (!ranges.empty()) {
    // Probe the cache for every range-selected attribute of this leaf
    // (one with the paper's base model; several under the §6
    // multi-attribute extension). A partition that fully covers *its*
    // attribute's selection yields the complete leaf answer once the
    // remaining predicates are applied locally by the executor.
    struct Candidate {
      RangeLookupOutcome lookup;
      PartitionKey key;
    };
    std::optional<Candidate> best;
    std::optional<Candidate> best_cover;  // by assembled coverage
    std::optional<RangeLookupOutcome> primary_lookup;
    for (const RangeSelection& sel : ranges) {
      ASSIGN_OR_RETURN(const AttributeDomain domain,
                       catalog_.GetDomain(leaf.table, sel.attribute));
      ASSIGN_OR_RETURN(const Range encoded,
                       domain.EncodeClampedRange(sel.lo, sel.hi));
      const PartitionKey key{leaf.table, sel.attribute, encoded};
      ASSIGN_OR_RETURN(RangeLookupOutcome lookup, LookupRangeFrom(client, key));
      const double recall = lookup.match ? lookup.match->recall : 0.0;
      const double best_recall =
          best && best->lookup.match ? best->lookup.match->recall : -1.0;
      if (!primary_lookup) primary_lookup = lookup;
      if (config_.assemble_coverage && lookup.coverage_recall > 0.0 &&
          (!best_cover || lookup.coverage_recall > best_cover->lookup.coverage_recall)) {
        best_cover = Candidate{lookup, key};
      }
      if (recall > best_recall) {
        best = Candidate{std::move(lookup), key};
      }
    }

    // Walk the ranked matches until one is actually fetchable. A match
    // whose holder died between the probe and the fetch is stale: its
    // descriptors are lazily evicted at every probed owner and the
    // next-best match takes over; if every match fails, the source
    // answers (a fault can degrade a query, never fail it).
    bool cache_match_failed = false;
    if (best && best->lookup.match) {
      for (const RangeMatch& m : best->lookup.ranked) {
        // The best *surviving* match decides, exactly as the single-
        // match rule did: if it does not qualify for a cache answer,
        // the leaf goes to the source rather than to a worse match.
        const bool acceptable =
            m.recall >= 1.0 || (config_.accept_partial_answers && m.recall > 0.0);
        if (!acceptable) break;
        if (step_hook_) step_hook_("fetch");
        if (!overlay_->IsAlive(m.holder)) {
          // Dead at fetch time: repair the probing owners' buckets.
          for (const NetAddress& owner : best->lookup.probed_owners) {
            Peer* owner_peer = peer(owner);
            if (owner_peer == nullptr) continue;
            metrics_.stale_evictions +=
                owner_peer->EraseStaleDescriptors(m.matched, m.holder);
          }
          cache_match_failed = true;
          continue;
        }
        const Peer* holder_peer = peer(m.holder);
        const Relation* data =
            holder_peer == nullptr ? nullptr
                                   : holder_peer->GetPartitionData(m.matched);
        if (data == nullptr) {
          // Descriptor with no materialized bytes (holder lost or
          // never fetched them): useless, try the next match.
          cache_match_failed = true;
          continue;
        }
        if (!TransferData(client, m.holder, *data, /*from_source=*/false).ok()) {
          // Holder crashed mid-transfer or retries ran dry.
          cache_match_failed = true;
          continue;
        }
        ++metrics_.cache_fetches;
        inputs->emplace(leaf.table, *data);
        outcome->used_cache = true;
        outcome->recall = m.recall;
        outcome->lookup = std::move(best->lookup);
        return Status::OK();
      }
    }

    // Multi-partition coverage: several overlapping partitions may
    // jointly cover the selection even though no single one does.
    if (best_cover &&
        best_cover->lookup.coverage_recall >
            (best && best->lookup.match ? best->lookup.match->recall : 0.0)) {
      const double covered = best_cover->lookup.coverage_recall;
      const bool cover_full = covered >= 1.0 - 1e-12;
      if (cover_full || (config_.accept_partial_answers && covered > 0.0)) {
        ASSIGN_OR_RETURN(
            const std::optional<Relation> merged,
            FetchCoverage(client, best_cover->lookup.coverage_pieces));
        if (merged.has_value()) {
          ++metrics_.cache_fetches;
          ++metrics_.coverage_assemblies;
          inputs->emplace(leaf.table, *merged);
          outcome->used_cache = true;
          outcome->recall = covered;
          outcome->lookup = std::move(best_cover->lookup);
          return Status::OK();
        }
        cache_match_failed = true;  // assembly broke (dead/empty holder)
      }
    }

    if (cache_match_failed) ++metrics_.source_fallbacks;

    // Go to the source for the primary attribute's (effective)
    // partition. With caching enabled, materialize it at the client
    // and re-publish the descriptors so they point at the client's
    // copy — the lookup's cache-on-miss step does not run on an exact
    // hit, and the exact hit may have been a descriptor whose holder
    // never materialized the bytes (e.g. published by a metadata-only
    // lookup). Every selection ran a lookup, so the first one is set.
    DCHECK(primary_lookup.has_value());
    const PartitionKey effective_key{leaf.table, ranges.front().attribute,
                                     primary_lookup->effective_query};
    if (config_.cache_on_miss) {
      RETURN_NOT_OK(MaterializePartition(effective_key, client));
      RETURN_NOT_OK(PublishPartition(effective_key, client));
      const Relation* data = peer(client)->GetPartitionData(effective_key);
      DCHECK(data != nullptr);
      inputs->emplace(leaf.table, *data);
    } else {
      ASSIGN_OR_RETURN(const Relation* base, catalog_.GetBaseData(leaf.table));
      ASSIGN_OR_RETURN(const AttributeDomain domain, DomainFor(effective_key));
      ASSIGN_OR_RETURN(Relation rows,
                       base->SelectOrdinalRange(
                           effective_key.attribute,
                           domain.DecodeLo(effective_key.range),
                           domain.DecodeHi(effective_key.range)));
      ++metrics_.source_fetches;
      RETURN_NOT_OK(TransferData(client, source_, rows, /*from_source=*/true));
      inputs->emplace(leaf.table, std::move(rows));
    }
    outcome->from_source = true;
    outcome->recall = 1.0;
    outcome->lookup = std::move(*primary_lookup);
    return Status::OK();
  }

  if (!leaf.filters.empty()) {
    // Exact-match partition path (§3.1): hash the (relation,
    // attribute, value) key onto the ring, probe the owner.
    const EqFilter& f = leaf.filters.front();
    const std::string eq_key = EqKeyString(leaf.table, f.attribute, f.value);
    const chord::ChordId id = Sha1::Hash32(eq_key);
    ++metrics_.eq_lookups;
    // A failed route (or an owner that crashed mid-query) skips the
    // cache probe; the source still answers.
    Peer* owner_peer = nullptr;
    auto route = overlay_->RouteToOwner(client, id);
    if (route.ok()) {
      metrics_.chord_hops += route->hops;
      metrics_.latency_ms += route->latency_ms;
      if (overlay_->IsAlive(route->owner.addr)) {
        owner_peer = peer(route->owner.addr);
      }
    }
    std::optional<EqDescriptor> desc =
        owner_peer == nullptr ? std::nullopt
                              : owner_peer->FindEqDescriptor(id, eq_key);
    if (desc && !overlay_->IsAlive(desc->holder)) {
      // Stale: the holder died with its data. Repair the owner's
      // bucket so later queries go straight to the source.
      if (owner_peer->EraseEqDescriptor(id, eq_key, desc->holder)) {
        ++metrics_.stale_evictions;
      }
      ++metrics_.source_fallbacks;
      desc.reset();
    }
    if (desc) {
      const Peer* holder_peer = peer(desc->holder);
      const Relation* data =
          holder_peer == nullptr ? nullptr : holder_peer->GetEqData(eq_key);
      if (data != nullptr &&
          TransferData(client, desc->holder, *data, /*from_source=*/false).ok()) {
        ++metrics_.eq_hits;
        ++metrics_.cache_fetches;
        inputs->emplace(leaf.table, *data);
        outcome->used_cache = true;
        return Status::OK();
      }
      ++metrics_.source_fallbacks;
    }
    // Source fetch; publish and materialize at the client.
    ASSIGN_OR_RETURN(const Relation* base, catalog_.GetBaseData(leaf.table));
    ASSIGN_OR_RETURN(Relation rows, base->SelectEquals(f.attribute, f.value));
    ++metrics_.source_fetches;
    RETURN_NOT_OK(TransferData(client, source_, rows, /*from_source=*/true));
    if (config_.cache_on_miss) {
      peer(client)->StoreEqData(eq_key, rows);
      if (owner_peer != nullptr) {
        owner_peer->StoreEqDescriptor(id, EqDescriptor{eq_key, client});
      }
    }
    inputs->emplace(leaf.table, std::move(rows));
    outcome->from_source = true;
    return Status::OK();
  }

  // Unfiltered leaf: always from the source.
  ASSIGN_OR_RETURN(const Relation* base, catalog_.GetBaseData(leaf.table));
  ++metrics_.source_fetches;
  RETURN_NOT_OK(TransferData(client, source_, *base, /*from_source=*/true));
  inputs->emplace(leaf.table, *base);
  outcome->from_source = true;
  return Status::OK();
}

Result<QueryOutcome> RangeCacheSystem::ExecuteQuery(const std::string& sql) {
  ASSIGN_OR_RETURN(const NetAddress client, overlay_->RandomAliveAddress());
  return ExecuteQueryFrom(client, sql);
}

Result<QueryOutcome> RangeCacheSystem::ExecuteQueryFrom(const NetAddress& client,
                                                        const std::string& sql) {
  if (peer(client) == nullptr) {
    return Status::InvalidArgument("unknown client peer " + client.ToString());
  }
  if (!overlay_->IsAlive(client)) {
    return Status::InvalidArgument("client peer " + client.ToString() +
                                   " is down");
  }
  ASSIGN_OR_RETURN(const SelectStatement stmt, ParseSelect(sql));
  PlannerOptions planner_options;
  planner_options.allow_multi_attribute = config_.multi_attribute;
  ASSIGN_OR_RETURN(const QueryPlan plan, BuildPlan(stmt, catalog_, planner_options));

  const uint64_t hops_before = metrics_.chord_hops;
  const double latency_before = metrics_.latency_ms;

  // §6 extension: whole-result cache keyed by the canonical plan (the
  // plan text normalizes literal spellings, bound merging, and column
  // qualification, so equivalent queries share a key).
  const std::string result_key = "QR|" + plan.ToString();
  const chord::ChordId result_id = Sha1::Hash32(result_key);
  overlay::PeerInfo result_owner{};
  if (config_.cache_query_results) {
    ++metrics_.result_cache_lookups;
    // A failed route or crashed owner just skips the result cache.
    auto route = overlay_->RouteToOwner(client, result_id);
    Peer* owner_peer = nullptr;
    if (route.ok()) {
      metrics_.chord_hops += route->hops;
      metrics_.latency_ms += route->latency_ms;
      result_owner = route->owner;
      if (overlay_->IsAlive(route->owner.addr)) {
        owner_peer = peer(route->owner.addr);
      }
    }
    std::optional<EqDescriptor> desc =
        owner_peer == nullptr ? std::nullopt
                              : owner_peer->FindEqDescriptor(result_id, result_key);
    if (desc && !overlay_->IsAlive(desc->holder)) {
      if (owner_peer->EraseEqDescriptor(result_id, result_key, desc->holder)) {
        ++metrics_.stale_evictions;
      }
      desc.reset();
    }
    if (desc) {
      const Peer* holder_peer = peer(desc->holder);
      const Relation* cached =
          holder_peer == nullptr ? nullptr : holder_peer->GetEqData(result_key);
      if (cached != nullptr &&
          TransferData(client, desc->holder, *cached, /*from_source=*/false).ok()) {
        ++metrics_.result_cache_hits;
        QueryOutcome outcome;
        outcome.result = *cached;
        outcome.from_result_cache = true;
        outcome.total_hops = static_cast<int>(metrics_.chord_hops - hops_before);
        outcome.total_latency_ms = metrics_.latency_ms - latency_before;
        return outcome;
      }
    }
  }

  QueryOutcome outcome;
  std::map<std::string, Relation> inputs;
  for (const TableSelection& leaf : plan.leaves) {
    LeafOutcome leaf_outcome;
    RETURN_NOT_OK(AnswerLeaf(client, leaf, &inputs, &leaf_outcome));
    if (leaf_outcome.recall < 1.0) outcome.approximate = true;
    outcome.leaves.push_back(std::move(leaf_outcome));
  }
  ASSIGN_OR_RETURN(outcome.result, ExecutePlan(plan, inputs));

  // Publish the complete result (never an approximate one) at the
  // querying peer for future exact re-asks.
  if (config_.cache_query_results && !outcome.approximate) {
    peer(client)->StoreEqData(result_key, outcome.result);
    Peer* owner_peer = overlay_->IsAlive(result_owner.addr)
                           ? peer(result_owner.addr)
                           : nullptr;
    if (owner_peer != nullptr) {
      owner_peer->StoreEqDescriptor(result_id, EqDescriptor{result_key, client});
    }
  }

  outcome.total_hops = static_cast<int>(metrics_.chord_hops - hops_before);
  outcome.total_latency_ms = metrics_.latency_ms - latency_before;
  return outcome;
}

Result<NetAddress> RangeCacheSystem::AddPeer() {
  ASSIGN_OR_RETURN(const overlay::PeerInfo info, overlay_->AddNode());
  overlay_->Stabilize(2);
  peers_.emplace(info.addr,
                 std::make_unique<Peer>(info, config_.store_capacity));
  return info.addr;
}

Status RangeCacheSystem::RemovePeer(const NetAddress& addr, bool graceful) {
  if (addr == source_) {
    return Status::InvalidArgument("the source peer cannot leave the system");
  }
  if (peer(addr) == nullptr) {
    return Status::NotFound("unknown peer " + addr.ToString());
  }
  if (graceful) {
    RETURN_NOT_OK(overlay_->Leave(addr));
  } else {
    RETURN_NOT_OK(overlay_->Fail(addr));
  }
  overlay_->Stabilize(1);
  peers_.erase(addr);
  return Status::OK();
}

Status RangeCacheSystem::CrashPeer(const NetAddress& addr) {
  if (addr == source_) {
    return Status::InvalidArgument("the source peer cannot crash");
  }
  if (peer(addr) == nullptr) {
    return Status::NotFound("unknown peer " + addr.ToString());
  }
  if (!overlay_->IsAlive(addr)) {
    return Status::InvalidArgument("peer " + addr.ToString() + " already down");
  }
  // Abrupt and undetected: no handoff, no stabilization. The ring
  // repairs itself through successor lists during later lookups and
  // maintenance sweeps; the peer's descriptors go stale until the
  // lazy-repair path evicts them.
  RETURN_NOT_OK(overlay_->Fail(addr));
  // Honest crash semantics: everything in RAM is gone. The WAL and
  // checkpoint images inside the peer survive (they model its disk).
  peer(addr)->CrashVolatileState();
  ++metrics_.peer_crashes;
  return Status::OK();
}

Status RangeCacheSystem::RecoverPeer(const NetAddress& addr) {
  Peer* p = peer(addr);
  if (p == nullptr) {
    return Status::NotFound("unknown peer " + addr.ToString());
  }
  if (overlay_->IsAlive(addr)) {
    return Status::InvalidArgument("peer " + addr.ToString() + " is not down");
  }
  // Local replay first (checkpoint + WAL), then rejoin the ring.
  const store::RecoveryReport report = p->RecoverDurableState();
  ++metrics_.peer_recoveries;
  metrics_.wal_records_replayed += report.wal_records_replayed;
  metrics_.recoveries_torn_tail += report.torn_tail ? 1 : 0;
  metrics_.recoveries_wal_corrupted += report.wal_corrupted ? 1 : 0;
  metrics_.recovery_descriptors_restored += report.descriptors_restored;
  RETURN_NOT_OK(overlay_->Recover(addr));
  overlay_->Stabilize(1);
  RepairRecoveredPeerFromReplicas(addr);
  return Status::OK();
}

void RangeCacheSystem::RepairRecoveredPeerFromReplicas(const NetAddress& addr) {
  // Post-recovery anti-entropy: descriptors the replay could not
  // restore (lost to a torn tail or a rotted log) still exist at the
  // identifier owners' replicas. The recovered peer pulls from its
  // first descriptor_replication - 1 live successors — the peers that
  // replicate exactly the buckets it owns — and re-inserts every
  // descriptor it should hold but lost.
  if (config_.descriptor_replication <= 1) return;
  Peer* recovered = peer(addr);
  if (recovered == nullptr) return;
  // The recovered node's own successor list is freshly re-bootstrapped
  // and may not reflect true ring order until stabilization converges,
  // so resolve the true live successors — the peers a stabilized ring
  // replicated this node's buckets to — from the global sorted view.
  const std::vector<overlay::PeerInfo> sorted = overlay_->AlivePeersOrdered();
  size_t self = sorted.size();
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].addr == addr) {
      self = i;
      break;
    }
  }
  if (self == sorted.size()) return;
  int pulled_from = 0;
  for (size_t step = 1; step < sorted.size(); ++step) {
    if (pulled_from >= config_.descriptor_replication - 1) break;
    const overlay::PeerInfo& succ = sorted[(self + step) % sorted.size()];
    const Peer* replica = peer(succ.addr);
    if (replica == nullptr) continue;
    ++pulled_from;
    uint64_t transferred_bytes = 0;
    size_t repaired = 0;
    for (const auto& [bucket, descriptor] : replica->store().EntriesOldestFirst()) {
      // Only buckets the recovered peer owns belong at it, and only
      // descriptors with a live holder are worth re-publishing.
      auto owner = overlay_->OwnerOracle(bucket);
      if (!owner.ok() || !(owner->addr == addr)) continue;
      if (!overlay_->IsAlive(descriptor.holder)) continue;
      if (recovered->store().ContainsExact(bucket, descriptor.key)) continue;
      wire::Encoder enc;
      enc.PutVarint(bucket);
      wire::EncodePartitionDescriptor(descriptor, &enc);
      transferred_bytes += enc.size();
      recovered->InsertDescriptor(bucket, descriptor);
      ++repaired;
    }
    // One bulk transfer per replica carries all repaired descriptors.
    auto msg = DeliverWithPolicy(succ.addr, addr, transferred_bytes, nullptr);
    if (msg.ok()) metrics_.latency_ms += *msg;
    metrics_.recovery_descriptors_repaired += repaired;
  }
}

std::vector<size_t> RangeCacheSystem::DescriptorCountsPerPeer() const {
  std::vector<size_t> counts;
  counts.reserve(peers_.size());
  for (const overlay::PeerInfo& info : overlay_->AlivePeersOrdered()) {
    const Peer* p = peer(info.addr);
    counts.push_back(p == nullptr ? 0 : p->store().num_descriptors());
  }
  return counts;
}

}  // namespace p2prange
