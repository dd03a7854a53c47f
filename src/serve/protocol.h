// pathest: the wire protocol of the estimation service — newline-delimited
// request/response lines over a Unix-domain stream socket.
//
// One request line in, exactly one response line out, both terminated by a
// single '\n'. Grammar (tokens separated by single spaces):
//
//   request  := command [option ...] [arg ...]
//   option   := key '=' value            (recognized only right after the
//                                         command; the first token without
//                                         '=' starts the positional args)
//   response := "ok" [payload...]
//             | "err" CODE ("retriable" | "fatal") message...
//
// Commands:
//   health                      -> ok serving entries=N degraded=0|1
//                                  version=V
//   stats                       -> ok {single-line JSON: counters, entries,
//                                  last_reload report}
//   estimate [deadline_ms=N] <entry> <path> [<path>...]
//                               -> ok <e1> <e2> ...   (one %.17g value per
//                                  path, bit-exact round-trippable — the
//                                  torture suite compares these strings
//                                  against a serial oracle)
//   reload [dir=PATH]           -> ok loaded=N quarantined=M kept_stale=K
//                                  removed=R serving=S degraded=0|1
//                                  version=V
//   update [wait=1] (add|remove <src> <dst> <label>)+
//                               -> ok journaled=N pending=P
//                                  (wait=1: blocks until the batch is
//                                  applied -> ok applied=N epoch=E)
//                                  Only when the daemon was started with
//                                  graph=. The response is sent AFTER the
//                                  batch is fsynced into the edge-delta
//                                  journal: an "ok" survives any crash.
//   compact                     -> ok compacted epoch=E   (folds the
//                                  journal into a fresh base snapshot)
//   shutdown                    -> ok draining   (then the daemon stops
//                                  accepting, drains, and exits)
//   slowop ms=N                 -> ok slept      (test builds only —
//                                  ServeOptions::enable_test_commands —
//                                  holds a worker to make shedding and
//                                  drain deterministic in tests)
//
// Error taxonomy: CODE is the StatusCodeToString name of a util/status
// code. A client may retry a "retriable" error verbatim (possibly after
// reconnecting); a "fatal" error means the request itself is wrong:
//
//   ResourceExhausted retriable   load shed: the bounded connection queue
//                                 was full at accept
//   DeadlineExceeded  retriable   the request's deadline expired between
//                                 batch chunks
//   Unavailable       retriable   reload already in progress / server
//                                 draining / update journaled but not yet
//                                 applied when the daemon drained or the
//                                 journal was quarantined (updates are
//                                 idempotent, so retrying is always safe)
//   NotFound          fatal       unknown entry name / unknown edge label
//                                 in an update
//   InvalidArgument   fatal       malformed request, unparseable path,
//                                 path outside the entry's space, oversized
//                                 line, update/compact without graph=
//
// Responses never contain '\n' in the middle (error messages are
// sanitized), so a line-oriented client can always parse them.

#ifndef PATHEST_SERVE_PROTOCOL_H_
#define PATHEST_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pathest {
namespace serve {

/// Hard cap on a request line (bytes, excluding the terminator). A line
/// that exceeds it draws a fatal InvalidArgument and closes the
/// connection.
inline constexpr size_t kMaxRequestBytes = 1 << 20;

/// \brief A tokenized request line: command, leading key=value options,
/// and positional arguments.
struct Request {
  std::string command;
  std::vector<std::pair<std::string, std::string>> options;
  std::vector<std::string> args;

  /// \brief The value of option `key`, or `absent` when not given.
  std::string_view Option(std::string_view key,
                          std::string_view absent = {}) const {
    for (const auto& [k, v] : options) {
      if (k == key) return v;
    }
    return absent;
  }
};

/// \brief Tokenizes one request line. InvalidArgument on an empty line or
/// malformed option.
Result<Request> ParseRequest(std::string_view line);

/// \brief True when a client may retry the failed request verbatim.
bool IsRetriableCode(StatusCode code);

/// \brief Renders the "err CODE retriable|fatal message" response line
/// (without the trailing '\n'; newlines in the message are sanitized).
std::string FormatErrorResponse(const Status& status);

/// \brief Appends one estimate value as printf's %.17g would write it
/// (std::to_chars, general format, precision 17) — enough digits that the
/// decimal round-trips to the exact double, making responses
/// bit-comparable against a serial oracle.
void AppendEstimateValue(std::string* out, double value);

/// \brief Parses a non-negative integer option value ("", overflow, or
/// trailing junk fail). Used for deadline_ms= and friends.
Result<uint64_t> ParseU64Option(std::string_view key, std::string_view value);

}  // namespace serve
}  // namespace pathest

#endif  // PATHEST_SERVE_PROTOCOL_H_
