// The live harness's own guarantees, which every live suite and bench
// leans on: a child that is not running is never signalled (so never
// kill(-1, ...)), Terminate tells a clean exit from a dirty one, and
// ServerThread::Stop can be called any number of times.
#include "tests/support/live_harness.h"

#include <gtest/gtest.h>

#include <signal.h>

#include <filesystem>
#include <string>

namespace p2prange {
namespace harness {
namespace {

using namespace std::chrono_literals;

TEST(LiveHarnessTest, SignalsToAReapedOrNeverStartedChildAreRefused) {
  ChildProcess never;
  EXPECT_FALSE(never.Signal(SIGCONT).ok());
  EXPECT_FALSE(never.Terminate(100ms).ok());

  auto child = ChildProcess::Spawn({"/bin/sleep", "30"});
  ASSERT_TRUE(child.ok()) << child.status().ToString();
  ASSERT_TRUE(child->Kill().ok());
  EXPECT_FALSE(child->running());
  EXPECT_FALSE(child->Signal(SIGCONT).ok());
  EXPECT_FALSE(child->Kill().ok());
}

TEST(LiveHarnessTest, TerminateReportsANonZeroExitAndKillsAHoldout) {
  auto scratch = MakeScratchDir("live_harness_");
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  // A shell that runs `on_term` on SIGTERM. It creates `ready` once the
  // trap is set, so the SIGTERM below never lands before it.
  auto trapped = [&](const std::string& on_term, const std::string& ready) {
    auto child = ChildProcess::Spawn(
        {"/bin/sh", "-c", "trap '" + on_term + "' TERM; touch " + ready +
                              "; while :; do sleep 0.01; done"});
    EXPECT_TRUE(PollUntil(10s, [&] { return std::filesystem::exists(ready); }));
    return child;
  };
  auto exits_3 = trapped("exit 3", *scratch + "/exits_3");
  ASSERT_TRUE(exits_3.ok()) << exits_3.status().ToString();
  const std::string dirty = exits_3->Terminate(10s).ToString();
  EXPECT_NE(dirty.find("exited with status 3"), std::string::npos) << dirty;

  auto holdout = trapped("", *scratch + "/holdout");
  ASSERT_TRUE(holdout.ok()) << holdout.status().ToString();
  const std::string ignored = holdout->Terminate(200ms).ToString();
  EXPECT_NE(ignored.find("ignored SIGTERM"), std::string::npos) << ignored;
  EXPECT_FALSE(holdout->running()) << "the holdout was not SIGKILLed";
  std::filesystem::remove_all(*scratch);
}

TEST(LiveHarnessTest, ServerThreadStopIsIdempotent) {
  auto server = ServerThread::Start([](rpc::MsgType, std::string_view body) {
    return Result<std::string>(std::string(body));
  });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  rpc::TcpTransport transport;
  const NetAddress to = (*server)->address();
  ASSERT_TRUE(transport.Call(NetAddress{}, to, rpc::MsgType::kPing, "").ok());
  (*server)->Stop();
  (*server)->Stop();
  EXPECT_EQ((*server)->stats().requests_served, 1u);
}  // ...and the destructor stops it once more.

}  // namespace
}  // namespace harness
}  // namespace p2prange
