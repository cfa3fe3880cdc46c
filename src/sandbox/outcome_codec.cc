#include "src/sandbox/outcome_codec.h"

#include <utility>

namespace tsvd::sandbox {

using campaign::Json;
using campaign::RunOutcome;
using campaign::RunStatus;

const char* RunStatusName(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kCrashed:
      return "crashed";
    case RunStatus::kTimedOut:
      return "timed_out";
  }
  return "unknown";
}

bool RunStatusFromName(const std::string& name, RunStatus* out) {
  if (name == "ok") {
    *out = RunStatus::kOk;
  } else if (name == "crashed") {
    *out = RunStatus::kCrashed;
  } else if (name == "timed_out") {
    *out = RunStatus::kTimedOut;
  } else {
    return false;
  }
  return true;
}

Json EncodeRunOutcome(const RunOutcome& outcome) {
  Json j = Json::MakeObject();
  j.Set("codec_version", kRunOutcomeCodecVersion);
  j.Set("module_index", outcome.module_index);
  j.Set("module", outcome.module);
  j.Set("round", outcome.round);
  j.Set("status", RunStatusName(outcome.status));
  j.Set("attempts", outcome.attempts);
  j.Set("error", outcome.error);
  Json errors = Json::MakeArray();
  for (const std::string& e : outcome.attempt_errors) {
    errors.Push(e);
  }
  j.Set("attempt_errors", std::move(errors));
  j.Set("killed_by_signal", outcome.killed_by_signal);
  j.Set("crash_signature", outcome.crash_signature);
  j.Set("degrade_level", outcome.degrade_level);
  j.Set("quarantined", outcome.quarantined);
  j.Set("salvaged_trap_pairs", outcome.salvaged_trap_pairs);
  j.Set("wall_us", static_cast<int64_t>(outcome.wall_us));
  j.Set("oncall_count", outcome.oncall_count);
  j.Set("delays_injected", outcome.delays_injected);
  j.Set("delays_early_woken", outcome.delays_early_woken);
  j.Set("delays_aborted_stall", outcome.delays_aborted_stall);
  j.Set("delays_skipped_budget", outcome.delays_skipped_budget);
  j.Set("internal_errors", outcome.internal_errors);
  j.Set("runtime_disabled", outcome.runtime_disabled);
  j.Set("imported_pairs", outcome.imported_pairs);
  j.Set("retrapped_imported", outcome.retrapped_imported);
  j.Set("false_positives", outcome.false_positives);

  Json observations = Json::MakeArray();
  for (const campaign::BugObservation& obs : outcome.observations) {
    Json o = Json::MakeObject();
    o.Set("sig_first", obs.sig_first);
    o.Set("sig_second", obs.sig_second);
    o.Set("api_first", obs.api_first);
    o.Set("api_second", obs.api_second);
    o.Set("stack_digest", obs.stack_digest);
    o.Set("module", obs.module);
    o.Set("round", obs.round);
    o.Set("read_write", obs.read_write);
    o.Set("same_location", obs.same_location);
    o.Set("async_flavor", obs.async_flavor);
    o.Set("false_positive", obs.false_positive);
    observations.Push(std::move(o));
  }
  j.Set("observations", std::move(observations));

  Json traps = Json::MakeArray();
  for (const auto& [a, b] : outcome.traps.pairs) {
    Json pair = Json::MakeArray();
    pair.Push(a);
    pair.Push(b);
    traps.Push(std::move(pair));
  }
  j.Set("traps", std::move(traps));
  return j;
}

namespace {

// Typed field readers that tolerate absent keys (protocol growth) but reject
// present-but-mistyped values.
bool ReadInt(const Json& doc, const char* key, int64_t* out) {
  const Json* v = doc.Find(key);
  if (v == nullptr) {
    return true;
  }
  if (!v->is_number()) {
    return false;
  }
  *out = v->as_int();
  return true;
}

bool ReadString(const Json& doc, const char* key, std::string* out) {
  const Json* v = doc.Find(key);
  if (v == nullptr) {
    return true;
  }
  if (!v->is_string()) {
    return false;
  }
  *out = v->as_string();
  return true;
}

bool ReadBool(const Json& doc, const char* key, bool* out) {
  const Json* v = doc.Find(key);
  if (v == nullptr) {
    return true;
  }
  if (!v->is_bool()) {
    return false;
  }
  *out = v->as_bool();
  return true;
}

}  // namespace

bool DecodeRunOutcome(const Json& doc, RunOutcome* out, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  if (!doc.is_object()) {
    return fail("encoded run outcome is not a JSON object");
  }
  // Version gate first: a mismatched peer must get the version error, not a
  // confusing field-type error from whatever its format happens to look like.
  // No stamp = version 1, the legacy encoding with identical fields.
  if (const Json* v = doc.Find("codec_version"); v != nullptr) {
    if (!v->is_number()) {
      return fail("codec_version is not a number");
    }
    if (v->as_int() != kRunOutcomeCodecVersion && v->as_int() != 1) {
      return fail("run outcome codec version " + std::to_string(v->as_int()) +
                  ", this build speaks " + std::to_string(kRunOutcomeCodecVersion) +
                  " — coordinator and agent builds must match");
    }
  }
  *out = RunOutcome{};

  int64_t module_index = out->module_index, round = out->round,
          attempts = out->attempts, killed = 0, degrade = 0, false_positives = 0,
          wall = 0, oncall = 0, delays = 0, imported = 0, retrapped = 0, salvaged = 0,
          early_woken = 0, aborted_stall = 0, skipped_budget = 0, internal_errors = 0;
  std::string status_name = "ok";
  if (!ReadInt(doc, "module_index", &module_index) ||
      !ReadString(doc, "module", &out->module) || !ReadInt(doc, "round", &round) ||
      !ReadString(doc, "status", &status_name) ||
      !ReadInt(doc, "attempts", &attempts) || !ReadString(doc, "error", &out->error) ||
      !ReadInt(doc, "killed_by_signal", &killed) ||
      !ReadString(doc, "crash_signature", &out->crash_signature) ||
      !ReadInt(doc, "degrade_level", &degrade) ||
      !ReadBool(doc, "quarantined", &out->quarantined) ||
      !ReadInt(doc, "salvaged_trap_pairs", &salvaged) ||
      !ReadInt(doc, "wall_us", &wall) || !ReadInt(doc, "oncall_count", &oncall) ||
      !ReadInt(doc, "delays_injected", &delays) ||
      !ReadInt(doc, "delays_early_woken", &early_woken) ||
      !ReadInt(doc, "delays_aborted_stall", &aborted_stall) ||
      !ReadInt(doc, "delays_skipped_budget", &skipped_budget) ||
      !ReadInt(doc, "internal_errors", &internal_errors) ||
      !ReadBool(doc, "runtime_disabled", &out->runtime_disabled) ||
      !ReadInt(doc, "imported_pairs", &imported) ||
      !ReadInt(doc, "retrapped_imported", &retrapped) ||
      !ReadInt(doc, "false_positives", &false_positives)) {
    return fail("malformed run outcome field");
  }
  if (!RunStatusFromName(status_name, &out->status)) {
    return fail("malformed run outcome field");
  }
  out->module_index = static_cast<int>(module_index);
  out->round = static_cast<int>(round);
  out->attempts = static_cast<int>(attempts);
  out->killed_by_signal = static_cast<int>(killed);
  out->degrade_level = static_cast<int>(degrade);
  out->salvaged_trap_pairs = static_cast<uint64_t>(salvaged);
  out->wall_us = wall;
  out->oncall_count = static_cast<uint64_t>(oncall);
  out->delays_injected = static_cast<uint64_t>(delays);
  out->delays_early_woken = static_cast<uint64_t>(early_woken);
  out->delays_aborted_stall = static_cast<uint64_t>(aborted_stall);
  out->delays_skipped_budget = static_cast<uint64_t>(skipped_budget);
  out->internal_errors = static_cast<uint64_t>(internal_errors);
  out->imported_pairs = static_cast<uint64_t>(imported);
  out->retrapped_imported = static_cast<uint64_t>(retrapped);
  out->false_positives = static_cast<int>(false_positives);

  if (const Json* errors = doc.Find("attempt_errors"); errors != nullptr) {
    if (!errors->is_array()) {
      return fail("malformed run outcome field");
    }
    for (size_t i = 0; i < errors->size(); ++i) {
      if (!errors->at(i).is_string()) {
        return fail("malformed run outcome field");
      }
      out->attempt_errors.push_back(errors->at(i).as_string());
    }
  }

  if (const Json* observations = doc.Find("observations"); observations != nullptr) {
    if (!observations->is_array()) {
      return fail("malformed run outcome field");
    }
    out->observations.reserve(observations->size());
    for (size_t i = 0; i < observations->size(); ++i) {
      const Json& o = observations->at(i);
      campaign::BugObservation obs;
      int64_t digest = 0, obs_round = 0;
      if (!o.is_object() || !ReadString(o, "sig_first", &obs.sig_first) ||
          !ReadString(o, "sig_second", &obs.sig_second) ||
          !ReadString(o, "api_first", &obs.api_first) ||
          !ReadString(o, "api_second", &obs.api_second) ||
          !ReadInt(o, "stack_digest", &digest) ||
          !ReadString(o, "module", &obs.module) || !ReadInt(o, "round", &obs_round) ||
          !ReadBool(o, "read_write", &obs.read_write) ||
          !ReadBool(o, "same_location", &obs.same_location) ||
          !ReadBool(o, "async_flavor", &obs.async_flavor) ||
          !ReadBool(o, "false_positive", &obs.false_positive)) {
        return fail("malformed run outcome field");
      }
      obs.stack_digest = static_cast<uint64_t>(digest);
      obs.round = static_cast<int>(obs_round);
      out->observations.push_back(std::move(obs));
    }
  }

  if (const Json* traps = doc.Find("traps"); traps != nullptr) {
    if (!traps->is_array()) {
      return fail("malformed run outcome field");
    }
    out->traps.pairs.reserve(traps->size());
    for (size_t i = 0; i < traps->size(); ++i) {
      const Json& pair = traps->at(i);
      if (!pair.is_array() || pair.size() != 2 || !pair.at(0).is_string() ||
          !pair.at(1).is_string()) {
        return fail("malformed run outcome field");
      }
      out->traps.pairs.emplace_back(pair.at(0).as_string(), pair.at(1).as_string());
    }
    out->traps.Canonicalize();
  }
  return true;
}

}  // namespace tsvd::sandbox
