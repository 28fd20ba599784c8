// Bounds on client-controlled input nesting.
//
// Both recursive-descent parsers (db/query_parser.cc, lang/parser.cc)
// recurse once per nesting level of their input.  A stack overflow cannot
// be caught (GuardedCall sees no exception), so each parser counts its
// nesting with a ParseDepthGuard and fails with ParseError past
// kMaxParseDepth instead.

#ifndef CALDB_COMMON_LIMITS_H_
#define CALDB_COMMON_LIMITS_H_

#include <string>

#include "common/status.h"

namespace caldb {

/// Deepest nesting either parser accepts: parentheses, `not` chains,
/// unary minus, function arguments, foreach and selection chains, and
/// `{` blocks.
inline constexpr int kMaxParseDepth = 256;

/// Counts one nesting level of a parser for its lifetime: increments
/// `*depth` on construction and restores it on destruction.
class ParseDepthGuard {
 public:
  explicit ParseDepthGuard(int* depth) : depth_(depth) { ++*depth_; }
  ~ParseDepthGuard() { --*depth_; }
  ParseDepthGuard(const ParseDepthGuard&) = delete;
  ParseDepthGuard& operator=(const ParseDepthGuard&) = delete;

  /// ParseError once the nesting passes kMaxParseDepth, else OK.
  Status Check() const {
    if (*depth_ <= kMaxParseDepth) return Status::OK();
    return Status::ParseError("nesting deeper than " +
                              std::to_string(kMaxParseDepth) + " levels");
  }

 private:
  int* depth_;
};

}  // namespace caldb

#endif  // CALDB_COMMON_LIMITS_H_
