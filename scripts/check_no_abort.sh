#!/bin/sh
# Lint: library code under src/ must not terminate the process.
# Recoverable (input) errors return a Status; only the panic()
# implementation in common/logging.cc may abort. POSIX _exit() is
# allowed ONLY in the file that forks (the sweep runner, sweep.cc): its
# child processes must leave without running parent atexit hooks.
# Everywhere else _exit() is as illegal as exit().
#
# Usage: scripts/check_no_abort.sh <repo-root>
set -e
root=${1:?usage: check_no_abort.sh <repo-root>}

# std::abort / abort / std::exit / exit calls, excluding _exit and
# identifiers merely ending in ...exit/...abort. Comments are
# stripped so prose about abort() stays legal.
bad=$(grep -rnE '(^|[^_[:alnum:]])(std::)?(abort|exit)[[:space:]]*\(' \
          "$root/src" \
          --include='*.cc' --include='*.hh' \
      | grep -v ':[0-9]*: *\(//\|\*\|/\*\)' \
      | grep -v 'src/common/logging\.cc' \
      || true)

# _exit() outside the forking runner (sweep.cc).
bad_uexit=$(grep -rnE '(^|[^[:alnum:]])_exit[[:space:]]*\(' \
                "$root/src" \
                --include='*.cc' --include='*.hh' \
            | grep -v ':[0-9]*: *\(//\|\*\|/\*\)' \
            | grep -v 'src/core/sweep\.cc' \
            || true)

if [ -n "$bad" ] || [ -n "$bad_uexit" ]; then
    echo "error: process-terminating calls in library code:" >&2
    [ -n "$bad" ] && echo "$bad" >&2
    [ -n "$bad_uexit" ] && echo "$bad_uexit" >&2
    echo "return a Status (see src/common/status.hh) instead," >&2
    echo "or use panic() for internal invariants. _exit() is" >&2
    echo "reserved for forked children in sweep.cc." >&2
    exit 1
fi
echo "ok: src/ is free of abort()/exit() outside panic()"
