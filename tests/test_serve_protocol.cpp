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

#include <string>
#include <vector>

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
