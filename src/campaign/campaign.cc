// RunCampaign is a FleetCoordinator driving options.workers agent threads over
// the in-memory transport, so it links into tsvd_fleet (src/fleet/CMakeLists.txt).
#include "src/campaign/campaign.h"

#include <climits>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "src/campaign/journal.h"
#include "src/fleet/agent.h"
#include "src/fleet/coordinator.h"

namespace tsvd::campaign {

CampaignResult RunCampaign(const CampaignOptions& options) {
  // The agents share this process, and so the coordinator's fate: a lease never
  // expires (no job runs twice), no silent agent fails the campaign, nothing
  // beats, and only the coordinator's ledger journals.
  fleet::FleetOptions fleet;
  fleet.campaign = options;
  fleet.lease_timeout_ms = INT_MAX;
  fleet.agent_idle_timeout_ms = 0;
  fleet.heartbeat_timeout_ms = 0;
  fleet.wait_hint_ms = 1;  // an idle agent notices the next round at once
  fleet::FleetCoordinator coordinator(fleet);

  // Sandbox children checkpoint their traps atomically under work_dir/sandbox,
  // where the parent salvages them when a child dies mid-run.
  const bool sandboxed = options.sandbox.enabled && sandbox::ForkSupported();
  const std::string work_dir =
      !options.out_dir.empty()
          ? options.out_dir
          : (std::filesystem::temp_directory_path() /
             ("tsvd-campaign-" + std::to_string(static_cast<uint64_t>(NowMicros()))))
                .string();
  const std::string checkpoint_dir = work_dir + "/sandbox";

  // Reap what a dead campaign's children left behind. On resume the salvaged
  // pairs are staged into the trap store, which folds them in at the first
  // round boundary — after that round's imported snapshot, so the snapshot stays
  // the uninterrupted campaign's. A fresh campaign only clears the litter, so
  // its own crash forensics can never salvage another campaign's checkpoint.
  TrapFile stale_salvage;
  int salvaged_checkpoints = 0;
  if (sandboxed) {
    salvaged_checkpoints = ReapStaleCheckpoints(checkpoint_dir, &stale_salvage);
    if (!options.resume) {
      stale_salvage = TrapFile{};
    }
  }
  if (!stale_salvage.empty()) {
    Json push = Json::MakeObject();
    push.Set("type", "store_push");
    push.Set("traps", stale_salvage.Serialize());
    Json ack;
    coordinator.Connect()->Call(push, &ack, nullptr);
  }

  const int workers = options.workers > 0 ? options.workers : 1;
  std::vector<std::unique_ptr<fleet::TransportClient>> clients;
  std::vector<std::thread> agents;
  for (int i = 0; i < workers; ++i) {
    clients.push_back(coordinator.Connect());
    fleet::AgentOptions agent;
    agent.name = "worker-" + std::to_string(i);
    agent.work_dir = work_dir;
    agent.interrupt = [&coordinator] { return coordinator.draining(); };
    agents.emplace_back([client = clients.back().get(), agent] {
      fleet::RunInProcessAgent(client, agent);
    });
  }
  // Every worker joins before the first round is leased, so the reports'
  // "workers" is options.workers from their first flush on.
  while (coordinator.stats().agents_joined < static_cast<uint64_t>(workers)) {
    std::this_thread::yield();
  }

  CampaignResult result = coordinator.Run();
  for (std::thread& agent : agents) {
    agent.join();
  }
  result.salvaged_checkpoints = salvaged_checkpoints;
  if (result.error.empty() && !stale_salvage.empty()) {
    // A resume that ran no round never reached the boundary that folds the
    // staged salvage in; keep the reaped learning anyway.
    result.merged_traps.Merge(stale_salvage);
  }
  if (sandboxed) {
    std::error_code ec;
    std::filesystem::remove_all(options.out_dir.empty() ? work_dir : checkpoint_dir,
                                ec);
  }
  return result;
}

}  // namespace tsvd::campaign
