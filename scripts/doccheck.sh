#!/bin/sh
# doccheck.sh: godoc coverage gate for the repo's public surfaces.
#
# Every exported top-level declaration — funcs, methods on exported
# receivers (methods on unexported types never render in godoc), types,
# and single-declaration vars/consts — in the telcolens facade, in
# internal/trace (the storage layer other packages program against) and
# in internal/stats and internal/analysis (the statistics and the
# experiments behind every artifact) must carry a doc comment. Runs
# offline as part of `make lint`.
set -eu
cd "$(dirname "$0")/.."

files="telcolens.go"
for f in internal/trace/*.go internal/stats/*.go internal/analysis/*.go; do
    case "$f" in
    *_test.go) ;;
    *) files="$files $f" ;;
    esac
done

fail=0
for f in $files; do
    out=$(awk '
        /^\/\// { prevcomment = 1; next }
        /^func \([A-Za-z0-9_]+ \*?[A-Z][A-Za-z0-9_]*\) [A-Z]/ {
            if (!prevcomment) print FILENAME ":" FNR ": " $0
            prevcomment = 0; next
        }
        /^(func|type|var|const) [A-Z]/ {
            if (!prevcomment) print FILENAME ":" FNR ": " $0
            prevcomment = 0; next
        }
        { prevcomment = 0 }
    ' "$f")
    if [ -n "$out" ]; then
        echo "$out"
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "doccheck: the exported declarations above lack doc comments" >&2
    exit 1
fi
echo "doccheck: ok"
