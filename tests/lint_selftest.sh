#!/bin/sh
# Workflow test for the smptree static-lint pass:
#   1. the fixture selftest must pass (every check fires and stays silent
#      exactly where the EXPECT markers say), and
#   2. src/, tools/ and bench/ must lint clean with zero unwaivered findings
#      (the walk skips the deliberately bad tools/lint/testdata fixtures).
#
# Usage: lint_selftest.sh <python3> <repo-root>
set -eu

PYTHON="${1:?usage: lint_selftest.sh <python3> <repo-root>}"
ROOT="${2:?usage: lint_selftest.sh <python3> <repo-root>}"

echo "== lint fixture selftest =="
"$PYTHON" "$ROOT/tools/lint/selftest.py"

echo "== lint src/ tools/ bench/ (must be clean) =="
"$PYTHON" "$ROOT/tools/lint/smptree_lint.py" "$ROOT/src" "$ROOT/tools" \
  "$ROOT/bench"

echo "lint_selftest: PASS"
