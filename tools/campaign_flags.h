// The campaign flags tsvd_campaign and tsvd_fleet share: corpus identity, rounds,
// retry and sandbox policy, fault modules and delay-engine overrides — one parser,
// so the two tools accept the same spellings and ranges. --workers, --out,
// --resume and --io_chaos stay tool-local.
#ifndef TOOLS_CAMPAIGN_FLAGS_H_
#define TOOLS_CAMPAIGN_FLAGS_H_

#include <cstdint>
#include <limits>

#include "src/campaign/campaign.h"
#include "tools/flag_parser.h"

namespace tsvd::tools {

inline campaign::CampaignOptions ParseCampaignFlags(FlagParser& flags) {
  campaign::CampaignOptions options;
  options.rounds = static_cast<int>(flags.GetInt("rounds", 3, 1, 1000));
  options.num_modules = static_cast<int>(flags.GetInt("modules", 40, 1, 100000));
  options.detector = flags.GetString("detector", "TSVD");
  options.scale = flags.GetDouble("scale", 0.02, 1e-6, 1.0);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", 42, 0, std::numeric_limits<int64_t>::max()));
  // --max_attempts is the documented name; --retries remains as an alias.
  const int64_t retries_alias = flags.GetInt("retries", 2, 1, 10);
  options.max_attempts =
      static_cast<int>(flags.GetInt("max_attempts", retries_alias, 1, 10));
  options.stop_when_converged = !flags.GetBool("no-converge", false);
  options.journal_snapshot_every =
      static_cast<int>(flags.GetInt("journal_snapshot_every", 64, 0, 1000000));
  options.sandbox.enabled = flags.GetBool("sandbox", false);
  options.sandbox.run_timeout_ms =
      static_cast<int>(flags.GetInt("run_timeout_ms", 30000, 0, 86400000));
  options.sandbox.backoff_base_ms =
      static_cast<int>(flags.GetInt("backoff_ms", 50, 0, 60000));
  options.fault_crash_modules = static_cast<int>(flags.GetInt("fault-crash", 0, 0, 100));
  options.fault_hang_modules = static_cast<int>(flags.GetInt("fault-hang", 0, 0, 100));
  options.fault_throw_modules = static_cast<int>(flags.GetInt("fault-throw", 0, 0, 100));
  options.fault_deadlock_modules =
      static_cast<int>(flags.GetInt("fault-deadlock", 0, 0, 100));
  options.delay_us_override = 1000 * flags.GetInt("delay_ms", 0, 0, 3600000);
  options.stall_grace_us = 1000 * flags.GetInt("stall_grace_ms", -1, -1, 3600000);
  options.max_overhead_pct = flags.GetDouble("max_overhead_pct", -1.0, -1.0, 100.0);
  options.max_internal_errors =
      static_cast<int>(flags.GetInt("max_internal_errors", -1, -1, 1000000));
  return options;
}

}  // namespace tsvd::tools

#endif  // TOOLS_CAMPAIGN_FLAGS_H_
