// Protocol hardening tests for the admission service session.
//
// The contract of core/serve.hpp: EVERY malformed request earns one
// `err <reason>` reply — handle_line never throws, never silently
// coerces a bad number to 0.0, and never mutates admission state on a
// rejected parse. These are the satellite-2 regression tests: the
// pre-fix session parsed numeric tokens with std::stod-style prefix
// semantics ("3.5x" -> 3.5) and let out-of-range values through.
#include "core/serve.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve_corpus.hpp"

namespace mcs::core {
namespace {

TEST(ServeProtocol, TrailingJunkNumbersAreRejected) {
  ServeSession session;
  // "3.5x" must not parse as 3.5: the whole token must be consumed.
  EXPECT_EQ(session.handle_line(
                "admit name=a crit=LC wcet_lo=3.5x period=10"),
            "err invalid number for 'wcet_lo'");
  EXPECT_EQ(session.handle_line(
                "admit name=a crit=LC wcet_lo=1 period=10ms"),
            "err invalid number for 'period'");
  EXPECT_EQ(session.handle_line(
                "admit name=a crit=LC wcet_lo=1 period=10 deadline=8.0.1"),
            "err invalid number for 'deadline'");
  // Nothing was admitted by any of the rejected lines.
  EXPECT_EQ(session.handle_line("stats").substr(0, 16), "stats resident=0");
}

TEST(ServeProtocol, NanInfAndOutOfRangeAreRejected) {
  ServeSession session;
  for (const std::string bad : {"nan", "NaN", "inf", "-inf", "infinity",
                                "1e999", "-1e999"}) {
    EXPECT_EQ(session.handle_line("admit name=a crit=LC wcet_lo=" + bad +
                                  " period=10"),
              "err invalid number for 'wcet_lo'")
        << "wcet_lo=" << bad;
  }
  // Empty value is invalid, not absent (an absent wcet_lo would earn the
  // requires-arguments reply instead).
  EXPECT_EQ(session.handle_line("admit name=a crit=LC wcet_lo= period=10"),
            "err invalid number for 'wcet_lo'");
  EXPECT_EQ(session.handle_line("stats").substr(0, 16), "stats resident=0");
}

/// The reference numeric rule (docs/serve_protocol.md, "Numeric
/// strictness"): what strtod accepts in the C locale, with the whole value
/// consumed, no ERANGE (overflow, or an inexact result below the smallest
/// normal double) and a finite result.
std::optional<double> strtod_rule(const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || end != value.c_str() + value.size() ||
      errno == ERANGE || !std::isfinite(v))
    return std::nullopt;
  return v;
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Random decimal spellings, valid and invalid alike: an optional sign,
/// integer digits, an optional point with fraction digits (up to 24, past
/// double precision) and an optional exponent of up to three digits.
std::string random_decimal(common::Rng& rng) {
  std::string s;
  const auto digits = [&](std::uint64_t max) {
    for (std::uint64_t n = rng.uniform_u64(0, max); n > 0; --n)
      s += static_cast<char>('0' + rng.uniform_u64(0, 9));
  };
  if (rng.bernoulli(0.15)) s += '-';
  if (rng.bernoulli(0.05)) s += '+';
  digits(6);
  if (rng.bernoulli(0.7)) {
    s += '.';
    digits(24);
  }
  if (rng.bernoulli(0.4)) {
    s += rng.bernoulli(0.5) ? 'e' : 'E';
    if (rng.bernoulli(0.5)) s += rng.bernoulli(0.5) ? '-' : '+';
    digits(3);
  }
  return s;
}

TEST(ServeProtocol, NumbersFollowTheStrtodRule) {
  // Where from_chars and strtod disagree (a leading '+', hex floats,
  // subnormals, exact or not), edge cases where they agree, and seeded
  // random spellings (including the 17-digit round-trip form of random
  // doubles): each reply, and each admitted C^LO bit for bit, must follow
  // strtod.
  std::vector<std::string> tokens = {
      "+1.5", "0x1p3", "0X1P-2", "0x1p-1074", "0x1p-1075", "1e-310",
      "4.9e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "1e-400", "1e309", "-0", "0", "0e-400", ".5", "5.", "1,5", "1.5e",
      ".", "-", "inf", "INF", "infinity", "nan", "nan(1)",
      // strtod stops at a NUL byte; the whole value must still be read.
      std::string("1\0zz", 4), std::string("1.5\0junk", 8)};
  common::Rng rng(20240125);
  char buf[64];
  for (int i = 0; i < 1500; ++i) {
    tokens.push_back(random_decimal(rng));
    std::snprintf(buf, sizeof buf, "%.17g", rng.uniform(1e-3, 1e5));
    tokens.push_back(buf);
  }
  std::size_t values_checked = 0;
  for (const std::string& tok : tokens) {
    const std::optional<double> ref = strtod_rule(tok);
    const std::string admit =
        "admit name=t crit=LC wcet_lo=" + tok + " period=1e6";
    ServeSession session;
    const std::string reply = session.handle_line(admit);
    if (!ref) {
      EXPECT_EQ(reply, "err invalid number for 'wcet_lo'") << admit;
    } else {
      // Same reply as the exact hexfloat spelling of the reference value,
      // and an admitted task carries exactly that value.
      std::snprintf(buf, sizeof buf, "%a", *ref);
      ServeSession exact;
      EXPECT_EQ(reply, exact.handle_line(std::string(
                           "admit name=t crit=LC wcet_lo=") + buf +
                           " period=1e6"))
          << admit;
      if (const mc::McTask* task = session.front().find(1)) {
        EXPECT_EQ(bits_of(task->wcet_lo), bits_of(*ref)) << admit;
        ++values_checked;
      }
    }

    ServeSession monitored;
    ASSERT_EQ(monitored
                  .handle_line("admit name=h crit=HC wcet_lo=2 wcet_hi=4 "
                               "period=20 acet=1.5 sigma=0.3")
                  .substr(0, 10),
              "ok admit h");
    const std::string record = "record id=1 time=" + tok;
    const std::string expected = !ref          ? "err invalid number for 'time'"
                                 : *ref < 0.0 ? "err time must be >= 0"
                                              : "";
    EXPECT_EQ(monitored.handle_line(record), expected) << record;
  }
  // Most random spellings are valid and admissible: the bit check ran.
  EXPECT_GT(values_checked, tokens.size() / 2);
}

TEST(ServeProtocol, MissingAndUnknownArguments) {
  ServeSession session;
  EXPECT_EQ(session.handle_line("admit"),
            "err admit requires name= crit= wcet_lo= period=");
  EXPECT_EQ(session.handle_line("admit name=a crit=LC period=10"),
            "err admit requires name= crit= wcet_lo= period=");
  EXPECT_EQ(session.handle_line(
                "admit name=a crit=LC wcet_lo=1 period=10 bogus=3"),
            "err unknown admit argument 'bogus=3'");
  // A bare word (no key=value shape) is also an unknown argument.
  EXPECT_EQ(session.handle_line(
                "admit name=a crit=LC wcet_lo=1 period=10 fast"),
            "err unknown admit argument 'fast'");
  EXPECT_EQ(session.handle_line("admit name=a crit=medium wcet_lo=1 period=10"),
            "err crit must be HC or LC");
  EXPECT_EQ(session.handle_line("admit name=a crit=HC wcet_lo=1 period=10"),
            "err HC admit requires wcet_hi=");
  EXPECT_EQ(session.handle_line("remove"),
            "err request needs a valid name= or id=");
  EXPECT_EQ(session.handle_line("remove gadget=1"),
            "err unknown remove argument 'gadget=1'");
}

TEST(ServeProtocol, InvalidIdsNeverCoerce) {
  ServeSession session;
  ASSERT_EQ(session.handle_line("admit name=a crit=LC wcet_lo=1 period=10"),
            "ok admit a id=1 x=1 resident=1");
  EXPECT_EQ(session.handle_line("remove id=0"), "err invalid id '0'");
  EXPECT_EQ(session.handle_line("remove id=1x"), "err invalid id '1x'");
  EXPECT_EQ(session.handle_line("remove id=-1"), "err invalid id '-1'");
  EXPECT_EQ(session.handle_line("remove id=99999999999999999999999"),
            "err invalid id '99999999999999999999999'");
  EXPECT_EQ(session.handle_line("remove id=7"), "err unknown id 7");
  EXPECT_EQ(session.handle_line("remove name=ghost"),
            "err unknown task 'ghost'");
  // The resident task survived every malformed removal.
  EXPECT_EQ(session.handle_line("remove name=a"),
            "ok remove a id=1 resident=0");
}

TEST(ServeProtocol, RecordValidation) {
  ServeSession session;
  ASSERT_EQ(session
                .handle_line("admit name=hc crit=HC wcet_lo=2 wcet_hi=4 "
                             "period=20 acet=1.5 sigma=0.3")
                .substr(0, 11),
            "ok admit hc");
  ASSERT_EQ(session.handle_line("admit name=lc crit=LC wcet_lo=1 period=10")
                .substr(0, 11),
            "ok admit lc");
  EXPECT_EQ(session.handle_line("record name=hc"),
            "err record requires time=");
  EXPECT_EQ(session.handle_line("record name=hc time=abc"),
            "err invalid number for 'time'");
  EXPECT_EQ(session.handle_line("record name=hc time=-1"),
            "err time must be >= 0");
  EXPECT_EQ(session.handle_line("record name=lc time=1"),
            "err task 'lc' is not monitored");
  // A valid record is silent.
  EXPECT_EQ(session.handle_line("record name=hc time=1.4"), "");
}

TEST(ServeProtocol, NoArgCommandsRejectArguments) {
  ServeSession session;
  for (const std::string cmd :
       {"tick", "stats", "ping", "version", "quit", "shutdown"}) {
    EXPECT_EQ(session.handle_line(cmd + " now"),
              "err " + cmd + " takes no arguments")
        << cmd;
    EXPECT_FALSE(session.closed()) << cmd;
  }
  EXPECT_EQ(session.handle_line("ping"), "ok ping");
  EXPECT_EQ(session.handle_line("version"),
            "ok version mcs-serve/1 cores=1 backend=utilization");
  EXPECT_EQ(session.handle_line("frobnicate x=1"),
            "err unknown request 'frobnicate'");
  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.handle_line("quit"), "ok quit");
  EXPECT_TRUE(session.closed());
}

TEST(ServeProtocol, ShutdownClosesScriptSession) {
  ServeSession session;
  EXPECT_EQ(session.handle_line("shutdown"), "ok shutdown");
  EXPECT_TRUE(session.closed());
}

TEST(ServeProtocol, CommentsAndBlankLinesAreSilent) {
  ServeSession session;
  EXPECT_EQ(session.handle_line(""), "");
  EXPECT_EQ(session.handle_line("   "), "");
  EXPECT_EQ(session.handle_line("# a comment"), "");
  EXPECT_EQ(session.handle_line("  # indented comment"), "");
}

TEST(ServeProtocol, DuplicateNamesAreRejected) {
  ServeSession session;
  ASSERT_EQ(session.handle_line("admit name=a crit=LC wcet_lo=1 period=10"),
            "ok admit a id=1 x=1 resident=1");
  EXPECT_EQ(session.handle_line("admit name=a crit=LC wcet_lo=1 period=10"),
            "err name 'a' already resident");
  EXPECT_EQ(session.handle_line("stats").substr(0, 16), "stats resident=1");
}

TEST(ServeProtocol, InvalidTaskParametersAreRejectedNotThrown) {
  ServeSession session;
  // wcet_lo = 0 fails mc::McTask validation inside the controller; the
  // session must answer with err, not propagate std::invalid_argument.
  EXPECT_EQ(session.handle_line("admit name=z crit=LC wcet_lo=0 period=10"),
            "err invalid task parameters for 'z'");
  EXPECT_EQ(session.handle_line(
                "admit name=z crit=HC wcet_lo=5 wcet_hi=2 period=10"),
            "err invalid task parameters for 'z'");
  EXPECT_EQ(session.handle_line(
                "admit name=z crit=LC wcet_lo=1 period=10 deadline=0.5"),
            "err invalid task parameters for 'z'");
}

TEST(ServeProtocol, MulticoreRepliesCarryCoreAndProbes) {
  ServeSession::Config config;
  config.cores = 2;
  config.placement = sched::PartitionHeuristic::kWorstFit;
  ServeSession session(config);
  EXPECT_EQ(session.handle_line("version"),
            "ok version mcs-serve/1 cores=2 backend=utilization");
  EXPECT_EQ(session.handle_line("admit name=a crit=LC wcet_lo=6 period=10"),
            "ok admit a id=1 core=0 x=1 resident=1");
  EXPECT_EQ(session.handle_line("admit name=b crit=LC wcet_lo=6 period=10"),
            "ok admit b id=2 core=1 x=1 resident=2");
  // Too big for either core: the reject reply reports the probe count.
  EXPECT_EQ(session.handle_line("admit name=c crit=LC wcet_lo=9 period=10"),
            "reject admit c vd=fail dbf=fail resident=2 probes=2");
  const std::string stats = session.handle_line("stats");
  EXPECT_EQ(stats.rfind("stats resident=2 cores=2 placement=worst-fit", 0),
            0u)
      << stats;
  EXPECT_NE(stats.find("core0=[resident=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("core1=[resident=1"), std::string::npos) << stats;
}

TEST(ServeProtocol, SingleCoreRepliesStayLegacyShaped) {
  // cores=1 must not leak core=/probes= fields — the PR 7 replay scripts
  // pin these exact shapes.
  ServeSession session;
  EXPECT_EQ(session.handle_line(
                "admit name=video crit=HC wcet_lo=2 wcet_hi=4 period=20"),
            "ok admit video id=1 x=1 resident=1");
  EXPECT_EQ(session.handle_line("admit name=hog crit=LC wcet_lo=99 period=100"),
            "reject admit hog vd=fail dbf=fail resident=1");
  const std::string stats = session.handle_line("stats");
  EXPECT_EQ(stats.rfind("stats resident=1 state=ok x=1", 0), 0u) << stats;
  EXPECT_EQ(stats.find("core0="), std::string::npos) << stats;
  EXPECT_EQ(stats.find("probes="), std::string::npos) << stats;
}

TEST(ServeProtocol, PeriodBeyondTickRangeIsRejected) {
  // 1e12 ms is 1e21 ticks of the demand scan (1 ps), past int64: the scan
  // is inconclusive, so the task is rejected rather than admitted — and
  // a later, ordinary arrival is not blocked by it.
  ServeSession session;
  EXPECT_EQ(session.handle_line("admit name=big crit=LC wcet_lo=1 period=1e12"),
            "reject admit big vd=ok dbf=inconclusive resident=0");
  EXPECT_EQ(session.handle_line("admit name=mid crit=LC wcet_lo=1 period=1e6"),
            "ok admit mid id=1 x=1 resident=1");
}

TEST(ServeProtocol, HandleLineSurvivesHostileInput) {
  // A grab-bag of hostile lines: none may throw, every non-silent one
  // answers ok/err/reject.
  ServeSession session;
  const std::vector<std::string> hostile = {
      "admit name== crit=LC wcet_lo=1 period=10",
      "admit =1 name=q crit=LC wcet_lo=1 period=10",
      "remove id=",
      "record id= time=1",
      "admit name=\t crit=LC",
      "\x01\x02\x03",
      std::string(4096, 'a'),
      "admit name=a crit=LC wcet_lo=1 period=10 wcet_lo=2",
  };
  for (const std::string& line : hostile) {
    std::string reply;
    EXPECT_NO_THROW(reply = session.handle_line(line)) << line;
    if (!reply.empty()) {
      const bool shaped = reply.rfind("ok ", 0) == 0 ||
                          reply.rfind("err ", 0) == 0 ||
                          reply.rfind("reject ", 0) == 0;
      EXPECT_TRUE(shaped) << "line: " << line << " reply: " << reply;
    }
  }
}

// ---------------------------------------------------------------------------
// Reply golden and mutation fuzz over one request corpus.

using namespace std::string_literals;

/// Byte-level mutation of one request line: one to three replacements,
/// insertions, deletions or token duplications, biased towards the bytes
/// the parser branches on (the six whitespace bytes, '=', '#', NUL and
/// number characters).
std::string mutate(const std::string& line, common::Rng& rng) {
  static const std::string kPalette = " \t\n\v\f\r=#\0+-.0159eExpPinf_ad"s;
  std::string s = line;
  const auto pick = [&]() -> char {
    if (rng.bernoulli(0.2))
      return static_cast<char>(rng.uniform_u64(0, 255));
    return kPalette[rng.uniform_u64(0, kPalette.size() - 1)];
  };
  for (std::uint64_t n = rng.uniform_u64(1, 3); n > 0; --n) {
    const std::size_t at = s.empty() ? 0 : rng.uniform_u64(0, s.size() - 1);
    switch (rng.uniform_u64(0, 3)) {
      case 0:
        if (!s.empty()) s[at] = pick();
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), pick());
        break;
      case 2:
        if (!s.empty()) s.erase(at, 1);
        break;
      default: {
        // Repeat the token around `at`, so a key appears twice.
        std::size_t b = at;
        while (b > 0 && !is_request_space(s[b - 1])) --b;
        std::size_t e = at;
        while (e < s.size() && !is_request_space(s[e])) ++e;
        const std::string token = s.substr(b, e - b);
        s.insert(e, token);
        s.insert(e, 1, ' ');
        break;
      }
    }
  }
  return s;
}

/// The two session shapes the golden and the fuzz drive: the monolithic
/// front and a 3-core partitioned one (whose replies carry core= and
/// probes=).
std::vector<ServeSession::Config> corpus_configs() {
  ServeSession::Config one;
  one.min_jobs = 4;
  ServeSession::Config three = one;
  three.cores = 3;
  return {one, three};
}

/// FNV-1a over every reply of the corpus, then of kMutantsPerLine seeded
/// mutants of each corpus line, through a fresh session per config. Any
/// change to a reply byte, an error message or which error wins flips the
/// digest.
constexpr std::uint64_t kGoldenServeReplies = 0xc7444e4ed5777b63ULL;
constexpr std::uint64_t kMutantsPerLine = 40;

TEST(ServeGolden, RepliesArePinned) {
  const std::vector<std::string> corpus = fixtures::serve_corpus();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::string& reply) {
    for (const char c : reply + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  std::size_t replies = 0;
  for (const ServeSession::Config& config : corpus_configs()) {
    ServeSession session(config);
    common::Rng rng(28);
    for (const std::string& line : corpus) mix(session.handle_line(line));
    for (const std::string& line : corpus)
      for (std::uint64_t k = 0; k < kMutantsPerLine; ++k) {
        mix(session.handle_line(mutate(line, rng)));
        ++replies;
      }
  }
  EXPECT_GT(replies, 10000U);
  EXPECT_EQ(hash, kGoldenServeReplies) << std::hex << "0x" << hash;
}

/// The first whitespace-separated token of `line` ("" for a blank line).
std::string_view verb_of(std::string_view line) {
  std::size_t b = 0;
  while (b < line.size() && is_request_space(line[b])) ++b;
  std::size_t e = b;
  while (e < line.size() && !is_request_space(line[e])) ++e;
  return line.substr(b, e - b);
}

/// Checks one reply against the reply grammar of docs/serve_protocol.md;
/// returns what is wrong with it, or "" when it conforms.
std::string reply_violation(std::string_view line, std::string_view reply) {
  const std::string_view verb = verb_of(line);
  if (verb.empty() || verb[0] == '#')
    return reply.empty() ? "" : "a blank or comment line was answered";
  if (reply.empty())
    return verb == "record" ? "" : "a request other than record was silent";
  if (reply.starts_with("err internal")) return "the session threw";
  if (verb == "tick") {
    // Only tick spans lines: reopt lines, then the closing line.
    std::size_t at = 0;
    for (std::size_t nl; (nl = reply.find('\n', at)) != reply.npos;
         at = nl + 1)
      if (!reply.substr(at).starts_with("reopt "))
        return "a tick line before the last is not a reopt line";
    reply = reply.substr(at);
  }
  if (reply.find('\n') != reply.npos)
    return "a request other than tick got more than one line";
  for (const std::string_view prefix : {"ok ", "err ", "reject ", "stats "})
    if (reply.starts_with(prefix)) return "";
  return "an undocumented reply prefix";
}

TEST(ServeFuzz, MutatedRequestsKeepTheReplyGrammar) {
  // Seeded mutation fuzz of handle_line over the golden corpus: each round
  // replays the corpus into a fresh session, then feeds it mutants of
  // corpus lines and of earlier mutants. No request may throw, every
  // reply must follow the reply grammar, and an err reply must leave the
  // resident set as it was.
  constexpr std::uint64_t kRounds = 10;
  constexpr std::uint64_t kMutants = 20000;
  const std::vector<std::string> corpus = fixtures::serve_corpus();
  std::size_t checked = 0;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    for (const ServeSession::Config& config : corpus_configs()) {
      ServeSession session(config);
      common::Rng rng(common::index_seed(2828, round));
      for (const std::string& line : corpus) (void)session.handle_line(line);
      std::string line;
      for (std::uint64_t k = 0; k < kMutants; ++k) {
        const bool again = !line.empty() && rng.bernoulli(0.3);
        line = mutate(
            again ? line : corpus[rng.uniform_u64(0, corpus.size() - 1)], rng);
        const std::size_t resident = session.front().resident_count();
        std::string reply;
        try {
          reply = session.handle_line(line);
        } catch (...) {
          ADD_FAILURE() << "handle_line threw on: " << line;
          continue;
        }
        std::string why = reply_violation(line, reply);
        if (why.empty() && reply.starts_with("err ") &&
            session.front().resident_count() != resident)
          why = "an err reply changed the resident set";
        ASSERT_EQ(why, "") << "line: " << line << "\nreply: " << reply;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * kRounds * kMutants);
}

}  // namespace
}  // namespace mcs::core
