#!/usr/bin/env bash
# The no-throw contract has one exception firewall: GuardedCall in
# src/common/guarded_call.h.  Every public Engine/Session/
# PreparedStatement entry point runs through it, so a hand-written
# `catch (` anywhere else in src/ is a second, divergent copy of the
# firewall.  Fails when one appears.
#
#   tools/lint_firewall.sh

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
firewall="src/common/guarded_call.h"

cd "$repo_root"
if ! grep -q 'catch (' "$firewall"; then
  echo "lint_firewall: no catch clause in $firewall" >&2
  exit 1
fi
stray="$(grep -rn 'catch (' src/ | grep -v "^$firewall:" || true)"
if [[ -n "$stray" ]]; then
  echo "catch outside GuardedCall (route the boundary through" \
       "GuardedCall in $firewall instead):" >&2
  echo "$stray" >&2
  exit 1
fi
echo "lint_firewall: every catch in src/ is GuardedCall's"
