// p2prange_client: drives a live ring of p2prange_node processes.
//
//   p2prange_client --members=H:P,H:P,... [common flags] COMMAND ...
//
// Commands:
//   ping ADDR                    one liveness round trip
//   metrics ADDR                 print a node's metrics JSON line
//   publish REL ATTR LO HI HOLDER   publish one partition descriptor
//   lookup REL ATTR LO HI        the §4 range lookup; prints the ranked
//                                matches and the best match's recall
//   workload --publishes=N --queries=N [--domain=LO:HI] [--wseed=S]
//                                the paper's uniform workload: publish
//                                N random ranges (holders round-robin
//                                over the members), query Q more, print
//                                summary recall/containment statistics
//
// Common flags: --lsh_k, --lsh_l, --lsh_seed (must match the
// publishers'), --criterion=jaccard|containment, --replication=N,
// --deadline_ms=D, --retries=N.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "flags.h"
#include "rpc/ring_client.h"
#include "rpc/tcp.h"
#include "workload/range_workload.h"

namespace {

using namespace p2prange;
using tools::ParseFlag;
using tools::ParseNumber;
using tools::ParseNumberFlag;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --members=H:P,... [--lsh_k=20] [--lsh_l=5] "
               "[--lsh_seed=1] [--criterion=jaccard|containment] "
               "[--replication=1] [--deadline_ms=1000] [--retries=3] "
               "COMMAND ...\n"
               "commands: ping ADDR | metrics ADDR | "
               "publish REL ATTR LO HI HOLDER | lookup REL ATTR LO HI | "
               "workload --publishes=N --queries=N [--domain=LO:HI] "
               "[--wseed=S]\n",
               argv0);
  return 2;
}

Result<std::vector<NetAddress>> ParseMembers(const std::string& csv) {
  std::vector<NetAddress> members;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) {
      ASSIGN_OR_RETURN(NetAddress addr, rpc::ParseHostPort(item));
      members.push_back(addr);
    }
    start = comma + 1;
  }
  if (members.empty()) {
    return Status::InvalidArgument("--members is empty");
  }
  return members;
}

Result<PartitionKey> ParseKeyArgs(const std::vector<std::string>& args,
                                  size_t at) {
  if (at + 4 > args.size()) {
    return Status::InvalidArgument("expected REL ATTR LO HI");
  }
  uint32_t lo = 0, hi = 0;
  if (!ParseNumber(args[at + 2], &lo) || !ParseNumber(args[at + 3], &hi)) {
    return Status::InvalidArgument("LO and HI must be 32-bit unsigned");
  }
  ASSIGN_OR_RETURN(Range range, Range::Make(lo, hi));
  return PartitionKey{args[at], args[at + 1], range};
}

int RunWorkload(rpc::RingClient& client,
                const std::vector<NetAddress>& members, size_t publishes,
                size_t queries, uint32_t domain_lo, uint32_t domain_hi,
                uint64_t seed) {
  // Publish phase: the paper's uniform ranges, holders round-robin.
  UniformRangeGenerator gen(domain_lo, domain_hi, seed);
  size_t published = 0;
  for (size_t i = 0; i < publishes; ++i) {
    const Range r = gen.Next();
    const PartitionKey key{"T", "a", r};
    const NetAddress holder = members[i % members.size()];
    const Status st = client.Publish(key, holder);
    if (!st.ok()) {
      std::fprintf(stderr, "publish %s: %s\n", key.ToString().c_str(),
                   st.ToString().c_str());
      continue;
    }
    ++published;
  }

  // Query phase: fresh draws from the same distribution.
  UniformRangeGenerator qgen(domain_lo, domain_hi, seed ^ 0x9E3779B9);
  size_t answered = 0, hits = 0, exact = 0, degraded = 0;
  double recall_sum = 0.0, containment_sum = 0.0;
  for (size_t i = 0; i < queries; ++i) {
    const Range q = qgen.Next();
    const PartitionKey key{"T", "a", q};
    auto outcome = client.Lookup(key);
    if (!outcome.ok()) {
      std::fprintf(stderr, "lookup %s: %s\n", key.ToString().c_str(),
                   outcome.status().ToString().c_str());
      continue;
    }
    ++answered;
    if (outcome->probes_failed > 0) ++degraded;
    if (!outcome->ranked.empty()) {
      ++hits;
      const Range best = outcome->ranked.front().descriptor.key.range;
      if (best == q) ++exact;
      recall_sum += q.RecallFrom(best);
      containment_sum += q.ContainmentIn(best);
    }
  }

  std::printf(
      "{\"published\":%zu,\"queries\":%zu,\"answered\":%zu,\"hits\":%zu,"
      "\"exact\":%zu,\"degraded\":%zu,\"avg_recall\":%.6f,"
      "\"avg_containment\":%.6f,\"timeouts\":%llu,\"retransmits\":%llu}\n",
      published, queries, answered, hits, exact, degraded,
      hits > 0 ? recall_sum / static_cast<double>(hits) : 0.0,
      hits > 0 ? containment_sum / static_cast<double>(hits) : 0.0,
      static_cast<unsigned long long>(client.transport().rpc_stats().timeouts),
      static_cast<unsigned long long>(
          client.transport().rpc_stats().retransmits));
  return answered == queries ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string members_csv;
  rpc::RingClientOptions options;
  std::string criterion = "jaccard";
  std::vector<std::string> args;

  size_t publishes = 0, queries = 0;
  uint32_t domain_lo = 0, domain_hi = 1000;
  uint64_t wseed = 7;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "members", &members_csv)) continue;
    if (ParseFlag(arg, "criterion", &criterion)) continue;
    bool malformed = false;
    const auto number = [&](std::string_view name, auto* out) {
      return ParseNumberFlag(arg, name, out, &malformed);
    };
    if (number("lsh_k", &options.lsh.k) || number("lsh_l", &options.lsh.l) ||
        number("lsh_seed", &options.lsh.seed) ||
        number("replication", &options.descriptor_replication) ||
        number("deadline_ms", &options.deadline_ms) ||
        number("retries", &options.fault.max_retries) ||
        number("publishes", &publishes) || number("queries", &queries) ||
        number("wseed", &wseed)) {
      if (!malformed) continue;
      std::fprintf(stderr, "malformed value: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
    if (ParseFlag(arg, "domain", &value)) {
      const std::string_view lo_hi(value);
      const size_t colon = lo_hi.find(':');
      if (colon == std::string_view::npos ||
          !ParseNumber(lo_hi.substr(0, colon), &domain_lo) ||
          !ParseNumber(lo_hi.substr(colon + 1), &domain_hi)) {
        std::fprintf(stderr, "malformed value: %s\n", arg.c_str());
        return Usage(argv[0]);
      }
      continue;
    }
    args.push_back(arg);
  }

  if (members_csv.empty() || args.empty()) return Usage(argv[0]);
  if (criterion == "containment") {
    options.criterion = MatchCriterion::kContainment;
  } else if (criterion != "jaccard") {
    std::fprintf(stderr, "unknown criterion %s\n", criterion.c_str());
    return 2;
  }
  options.transport.default_deadline_ms = options.deadline_ms;

  auto members = ParseMembers(members_csv);
  if (!members.ok()) {
    std::fprintf(stderr, "--members: %s\n",
                 members.status().ToString().c_str());
    return 2;
  }
  auto client = rpc::RingClient::Make(*members, options);
  if (!client.ok()) {
    std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
    return 1;
  }

  const std::string& command = args[0];
  if (command == "ping" && args.size() == 2) {
    auto addr = rpc::ParseHostPort(args[1]);
    if (!addr.ok()) {
      std::fprintf(stderr, "%s\n", addr.status().ToString().c_str());
      return 2;
    }
    auto latency = (*client)->Ping(*addr);
    if (!latency.ok()) {
      std::fprintf(stderr, "ping: %s\n", latency.status().ToString().c_str());
      return 1;
    }
    std::printf("pong from %s in %.3f ms\n", args[1].c_str(), *latency);
    return 0;
  }
  if (command == "metrics" && args.size() == 2) {
    auto addr = rpc::ParseHostPort(args[1]);
    if (!addr.ok()) {
      std::fprintf(stderr, "%s\n", addr.status().ToString().c_str());
      return 2;
    }
    auto json = (*client)->NodeMetrics(*addr);
    if (!json.ok()) {
      std::fprintf(stderr, "metrics: %s\n", json.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", json->c_str());
    return 0;
  }
  if (command == "publish" && args.size() == 6) {
    auto key = ParseKeyArgs(args, 1);
    auto holder = rpc::ParseHostPort(args[5]);
    if (!key.ok() || !holder.ok()) {
      std::fprintf(stderr, "publish: bad arguments\n");
      return 2;
    }
    const Status st = (*client)->Publish(*key, *holder);
    if (!st.ok()) {
      std::fprintf(stderr, "publish: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("published %s -> holder %s\n", key->ToString().c_str(),
                args[5].c_str());
    return 0;
  }
  if (command == "lookup" && args.size() == 5) {
    auto key = ParseKeyArgs(args, 1);
    if (!key.ok()) {
      std::fprintf(stderr, "lookup: %s\n", key.status().ToString().c_str());
      return 2;
    }
    auto outcome = (*client)->Lookup(*key);
    if (!outcome.ok()) {
      std::fprintf(stderr, "lookup: %s\n",
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("query %s: %zu match(es), %d probe(s) failed, %.3f ms\n",
                key->ToString().c_str(), outcome->ranked.size(),
                outcome->probes_failed, outcome->latency_ms);
    for (const MatchCandidate& c : outcome->ranked) {
      std::printf("  %-40s holder=%s score=%.4f recall=%.4f%s\n",
                  c.descriptor.key.ToString().c_str(),
                  c.descriptor.holder.ToString().c_str(), c.similarity,
                  key->range.RecallFrom(c.descriptor.key.range),
                  c.exact ? " exact" : "");
    }
    return 0;
  }
  if (command == "workload") {
    if (queries == 0 && publishes == 0) return Usage(argv[0]);
    return RunWorkload(**client, *members, publishes, queries, domain_lo,
                       domain_hi, wseed);
  }
  return Usage(argv[0]);
}
