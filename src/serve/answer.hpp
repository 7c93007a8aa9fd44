// The design service's one answer path: a "csdac-request/1" payload in,
// its "csdac-serve/4" reply out, on a caller-owned Scheduler and without a
// socket. The network server (server.*) calls it for every frame and
// csdac_serve's batch mode for its request file, so both front ends write
// the same reply bytes for the same payload.
//
// One call parses the payload, takes the caller's "trace_id" or mints
// "sv-<client>-<n>", opens the serve.request span, submits the request's
// unique keys (a repeated key reuses the first entry's ticket and reports
// "deduped": true, so it never runs twice, even with no cache tier), waits
// on them in request order and writes each job's id, kind, key, tier,
// result and per-stage latencies (response.hpp). Every stage also lands in
// the serve.stage_us{kind,stage} histograms; serve.requests,
// serve.requests_inflight, serve.request_us and serve.errors count the
// requests, and the flight recorder gets one event per request, refused
// payload and failed job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "runtime/json.hpp"
#include "runtime/scheduler.hpp"

namespace csdac::serve {

/// A reply plus what a front end accounts for beyond its bytes.
struct Answer {
  /// The "csdac-serve/4" reply, its error frame, or the control hook's
  /// reply.
  std::string reply;
  bool refused = false;     ///< reply is an error frame
  bool control = false;     ///< the control hook answered the payload
  std::int64_t failed = 0;  ///< jobs whose computation threw
  /// One JSONL slow-log record (trace id, wall time, per-job stages) when
  /// the request took at least slow_us; empty otherwise.
  std::string slow_record;
};

/// Answers one payload; never throws. `client` tags the submissions and
/// the minted trace id; `metrics` embeds a registry snapshot as if the
/// request asked for one ("metrics": true). A payload of schema
/// kControlSchema goes to `control` when given (its reply is returned
/// with control set) and is refused as a bad schema otherwise.
Answer answer(std::string_view payload, runtime::Scheduler& sched,
              std::uint64_t client, bool metrics = false,
              std::int64_t slow_us = -1,
              const std::function<std::string(const runtime::JsonValue&)>&
                  control = {});

}  // namespace csdac::serve
