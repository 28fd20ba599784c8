// GuardedCall: the exception firewall of the no-throw contract
// (common/result.h).
//
// Every public Engine, Session and PreparedStatement entry point runs its
// body through GuardedCall exactly once; so does each DBCRON chunk of an
// advance, and each temporal rule callback, so a throw fails that firing
// alone and DBCRON goes on with the others.  An exception escaping the
// body (a defect below the facade, or a throwing user callback) comes
// back as Status::Internal naming the entry point, so a server worker
// degrades into an error return instead of std::terminate.  This is the only `catch` in src/
// (tools/lint_firewall.sh enforces it).

#ifndef CALDB_COMMON_GUARDED_CALL_H_
#define CALDB_COMMON_GUARDED_CALL_H_

#include <exception>
#include <string>

#include "common/status.h"

namespace caldb {

/// Runs `fn()` and returns its Status or Result<T>; an escaping exception
/// becomes Status::Internal("uncaught exception in <what>: ...").
template <typename F>
auto GuardedCall(const char* what, F&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("uncaught exception in ") + what +
                            ": " + e.what());
  } catch (...) {
    return Status::Internal(std::string("uncaught non-exception throw in ") +
                            what);
  }
}

}  // namespace caldb

#endif  // CALDB_COMMON_GUARDED_CALL_H_
