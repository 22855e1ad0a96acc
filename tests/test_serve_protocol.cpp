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

}  // namespace
}  // namespace mcs::core
