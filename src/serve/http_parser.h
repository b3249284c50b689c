// Incremental HTTP/1.x request parser of the serving front end
// (serve/http_server.h). The parser owns a byte buffer: callers Feed()
// whatever recv() produced -- a single byte, a half request, or several
// pipelined requests in one TCP segment -- and the state machine advances
// as far as the bytes allow. When a request completes, the caller takes
// it, calls Reset(), and Advance() may complete the *next* request from
// the already-buffered remainder without another read (pipelined
// keep-alive).
//
// Protocol decisions centralized here:
//   - the request-line HTTP version is parsed; HTTP/1.0 requests default to
//     Connection: close unless the client sends a keep-alive token,
//     HTTP/1.1 defaults to keep-alive unless it sends close (RFC 7230 6.3);
//   - Connection header values are case-insensitive comma-separated token
//     lists ("Keep-Alive, Upgrade" negotiates keep-alive);
//   - oversized header blocks answer 431, oversized bodies 413, chunked
//     transfer coding 400 -- all as renderable error responses instead of a
//     silent connection drop.

#ifndef SMPTREE_SERVE_HTTP_PARSER_H_
#define SMPTREE_SERVE_HTTP_PARSER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/http_types.h"

namespace smptree {

/// Case-insensitive ASCII string equality (header names, tokens).
bool IEqualsAscii(std::string_view a, std::string_view b);

/// True when the comma-separated header value contains `token`,
/// case-insensitively and ignoring optional whitespace around list items:
/// HeaderValueHasToken("Keep-Alive, Upgrade", "keep-alive") is true.
bool HeaderValueHasToken(std::string_view value, std::string_view token);

class HttpRequestParser {
 public:
  enum class State {
    kReadingHeaders,  ///< waiting for the blank line ending the header block
    kReadingBody,     ///< headers parsed; waiting for Content-Length bytes
    kComplete,        ///< request() is ready; call Reset() before reusing
    kError,           ///< protocol error; send error response, then close
  };

  struct Limits {
    size_t max_header_bytes = 64u * 1024;
    size_t max_body_bytes = 32u << 20;
  };

  HttpRequestParser();  ///< default Limits
  explicit HttpRequestParser(Limits limits) : limits_(limits) {}

  /// Appends raw connection bytes and advances as far as possible.
  State Feed(const char* data, size_t n);

  /// Re-runs the state machine on already-buffered bytes (after Reset, to
  /// consume a pipelined request that arrived with the previous one).
  State Advance();

  State state() const { return state_; }

  /// The parsed request; valid only in kComplete. Mutable so the caller
  /// can move the strings out before Reset().
  HttpRequest& request() { return request_; }

  /// Negotiated connection persistence for the completed request (version
  /// default overridden by Connection tokens). Valid in kComplete.
  bool keep_alive() const { return keep_alive_; }

  /// Error response to send before closing; valid only in kError.
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// Discards the completed request and returns to kReadingHeaders,
  /// keeping any buffered bytes beyond it (the pipelined remainder).
  /// Must not be called in kError (a protocol error poisons the framing,
  /// so the connection cannot be reused).
  void Reset();

  /// Bytes received but not yet consumed by a completed request.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  void ParseHead(const std::string& head);
  State Fail(int status, const std::string& message);

  const Limits limits_;
  State state_ = State::kReadingHeaders;
  std::string buffer_;
  HttpRequest request_;
  size_t content_length_ = 0;
  bool keep_alive_ = true;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace smptree

#endif  // SMPTREE_SERVE_HTTP_PARSER_H_
