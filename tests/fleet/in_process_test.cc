// The coordinator reached through its in-memory client (FleetCoordinator::Connect),
// with the test playing the agent: only a final outcome completes a job and is
// journaled, and a non-final one from an agent interrupted on its own puts the job
// back up for lease.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "src/campaign/journal.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/protocol.h"
#include "src/fleet/transport.h"
#include "src/report/trap_file.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::Json;
using campaign::RunOutcome;
using campaign::RunStatus;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_in_process_test_" + std::to_string(stamp) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string Type(const Json& doc) {
  const Json* type = doc.Find("type");
  return type != nullptr && type->is_string() ? type->as_string() : "";
}

Json Call(TransportClient* client, const Json& request) {
  Json response;
  std::string error;
  EXPECT_TRUE(client->Call(request, &response, &error)) << error;
  return response;
}

// Leases until the coordinator grants a job (it answers "wait" until Run() has
// staged the round).
Json LeaseJob(TransportClient* client, uint64_t* nonce) {
  for (;;) {
    Json lease = Json::MakeObject();
    lease.Set("type", "lease");
    lease.Set("agent", "fake");
    lease.Set("nonce", ++*nonce);
    lease.Set("trap_version", static_cast<int64_t>(0));
    Json grant = Call(client, lease);
    if (Type(grant) != "wait") {
      return grant;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Json Publish(TransportClient* client, uint64_t* nonce, const Json& grant,
             const RunOutcome& outcome) {
  Json publish = Json::MakeObject();
  publish.Set("type", "result");
  publish.Set("agent", "fake");
  publish.Set("nonce", ++*nonce);
  publish.Set("lease", grant.Find("lease")->as_int());
  publish.Set("outcome", sandbox::EncodeRunOutcome(outcome));
  return Call(client, publish);
}

TEST(InProcessCoordinatorTest, OnlyAFinalOutcomeCompletesAndIsJournaled) {
  SetDurableFileSync(false);
  ScopedTempDir dir;
  FleetOptions options;
  options.campaign.num_modules = 1;
  options.campaign.rounds = 1;
  options.campaign.scale = 0.01;
  options.campaign.out_dir = dir.path + "/out";
  options.wait_hint_ms = 1;
  FleetCoordinator coordinator(options);  // no address: in-process clients only
  const std::unique_ptr<TransportClient> client = coordinator.Connect();

  Json hello = Json::MakeObject();
  hello.Set("type", "hello");
  hello.Set("agent", "fake");
  hello.Set("protocol_version", kFleetProtocolVersion);
  hello.Set("codec_version", sandbox::kRunOutcomeCodecVersion);
  ASSERT_EQ(Type(Call(client.get(), hello)), "setup");  // joins before Run()

  campaign::CampaignResult result;
  std::thread run([&] { result = coordinator.Run(); });
  uint64_t nonce = 0;

  // An agent stopped on its own interrupt publishes a cut, non-final failure:
  // not taken, not journaled, and the job goes back up for lease.
  const Json first = LeaseJob(client.get(), &nonce);
  ASSERT_EQ(Type(first), "job");
  RunOutcome cut;
  cut.module_index = 0;
  cut.round = 1;
  cut.status = RunStatus::kCrashed;
  cut.error = "attempt 1: crashed";
  const Json refused = Publish(client.get(), &nonce, first, cut);
  EXPECT_EQ(Type(refused), "ack");
  EXPECT_FALSE(refused.Find("accepted")->as_bool());

  const Json second = LeaseJob(client.get(), &nonce);
  ASSERT_EQ(Type(second), "job");
  EXPECT_EQ(second.Find("module_index")->as_int(), 0);
  EXPECT_NE(second.Find("lease")->as_int(), first.Find("lease")->as_int());
  RunOutcome ok;
  ok.module_index = 0;
  ok.module = "m0";
  ok.round = 1;
  const Json taken = Publish(client.get(), &nonce, second, ok);
  EXPECT_TRUE(taken.Find("accepted")->as_bool());

  EXPECT_EQ(Type(LeaseJob(client.get(), &nonce)), "done");
  run.join();
  SetDurableFileSync(true);

  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].status, RunStatus::kOk);
  EXPECT_EQ(coordinator.stats().duplicate_results, 0u);
  campaign::JournalReplay replay;
  ASSERT_TRUE(campaign::CampaignJournal::Load(
      campaign::CampaignJournal::PathIn(options.campaign.out_dir), &replay));
  ASSERT_EQ(replay.outcomes.size(), 1u);
  EXPECT_EQ(replay.outcomes[0].status, RunStatus::kOk);
  EXPECT_TRUE(replay.complete);
}

}  // namespace
}  // namespace tsvd::fleet
