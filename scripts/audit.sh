#!/bin/sh
# The standing deletion audit (ROADMAP item 6): list every public item
# under crates/*/src that nothing outside its own file names, and every
# public method that nothing outside its own file calls.
#
# For each `pub (fn|struct|enum|trait|type|const) NAME`, print
# `file: NAME` when every whole-word match of NAME under crates, src,
# tests, examples and sysbench/src is in the defining file. A method
# whose name is common elsewhere (`new`, `get`) passes that test however
# orphaned it is, so for each `pub fn NAME` of an inherent `impl TYPE`
# also print `file: TYPE::NAME` when no `TYPE::NAME(` or `.NAME(` in
# those directories is outside the defining file. A listed item is a
# candidate, not a verdict: a method reached only through a trait or
# passed by path, or a name that is also an English word used
# elsewhere, reads wrong in either direction. The last line is the
# count ci.sh prints.
#
# usage: scripts/audit.sh   (from the repository root)
set -eu

SOURCES="$(git ls-files crates | grep -E '^crates/[^/]+/src/.*\.rs$')"
SEARCHED="crates src tests examples sysbench/src"

items="$(echo "$SOURCES" | while read -r file; do
    sed -n -E 's/^[[:space:]]*pub (const )?(unsafe )?(fn|struct|enum|trait|type|const) ([A-Za-z_][A-Za-z0-9_]*).*/\4/p' "$file" |
        sort -u | while read -r name; do
        # shellcheck disable=SC2086
        others=$(grep -rlw --include='*.rs' -- "$name" $SEARCHED | grep -cvx "$file" || true)
        [ "$others" -ne 0 ] || echo "$file: $name"
    done
done)"

methods="$(echo "$SOURCES" | while read -r file; do
    awk '
        /^impl/ {
            ty = ""
            if ($0 !~ / for /) {
                ty = $0
                sub(/^impl(<[^>]*>)? */, "", ty)
                sub(/[^A-Za-z0-9_].*/, "", ty)
            }
        }
        /^    pub (const )?(unsafe )?fn / && ty != "" {
            name = $0
            sub(/^    pub (const )?(unsafe )?fn /, "", name)
            sub(/[^A-Za-z0-9_].*/, "", name)
            print ty, name
        }
    ' "$file" | sort -u | while read -r ty name; do
        # shellcheck disable=SC2086
        others=$(grep -rlF --include='*.rs' -e "$ty::$name(" -e ".$name(" $SEARCHED |
            grep -cvx "$file" || true)
        [ "$others" -ne 0 ] || echo "$file: $ty::$name"
    done
done)"

[ -z "$items" ] || echo "$items"
[ -z "$methods" ] || echo "$methods"
echo "$(echo "$items" | grep -c . || true) public item(s) named only in their own file," \
    "$(echo "$methods" | grep -c . || true) public method(s) called only there"
