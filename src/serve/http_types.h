// Wire-level HTTP request/response structs and response rendering, shared
// by the parser, the serving front end, and the client. Kept free of any
// socket or threading concerns so the protocol layer is testable in
// isolation.

#ifndef SMPTREE_SERVE_HTTP_TYPES_H_
#define SMPTREE_SERVE_HTTP_TYPES_H_

#include <string>
#include <utility>
#include <vector>

namespace smptree {

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (uppercase as sent)
  std::string path;    ///< path only; "?query" is split off into `query`
  std::string query;   ///< raw query string, no leading '?'
  std::string body;
  int version_major = 1;  ///< from the request line ("HTTP/1.0" -> 1, 0)
  int version_minor = 1;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers beyond the standard set RenderHttpResponse
  /// always emits (Content-Type, Content-Length, Connection) -- e.g. the
  /// Allow header a 405 is required to carry.
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Standard reason phrase for the handful of statuses the server emits.
const char* HttpStatusText(int status);

/// Serializes the response head + body; `keep_alive` picks the Connection
/// header.
std::string RenderHttpResponse(const HttpResponse& response, bool keep_alive);

}  // namespace smptree

#endif  // SMPTREE_SERVE_HTTP_TYPES_H_
