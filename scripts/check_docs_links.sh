#!/usr/bin/env bash
# Doc-path hygiene: every backtick-quoted repo path mentioned in the
# top-level docs and the verify skill must actually exist, so
# ARCHITECTURE.md's crate map, the README and the build notes can't
# silently rot as files move. A `{a,b}` group in a path stands for each of
# its alternatives, which must all exist. Run from the repo root (CI does);
# exits 1 listing every stale reference.
set -u

cd "$(dirname "$0")/.." || exit 1

# Prints each path `$1` stands for, one a line: the first `{a,b,...}`
# group is replaced by each alternative in turn, recursively.
expand() {
    local ref=$1
    if [[ $ref =~ ^([^{]*)\{([^}]*)\}(.*)$ ]]; then
        local head=${BASH_REMATCH[1]} tail=${BASH_REMATCH[3]} alt
        local IFS=,
        for alt in ${BASH_REMATCH[2]}; do
            expand "$head$alt$tail"
        done
    else
        printf '%s\n' "$ref"
    fi
}

status=0
for doc in ARCHITECTURE.md README.md .claude/skills/verify/SKILL.md; do
    [ -f "$doc" ] || { echo "missing doc: $doc"; status=1; continue; }
    # Backtick-quoted tokens that look like repo paths: start with a
    # known top-level directory and contain no spaces. `grep -o` pulls
    # each quoted token; the sed strips the backticks.
    refs=$(grep -o '`\(crates\|src\|scripts\|vendor\|examples\|tests\|perfbench\)/[^` ]*`' "$doc" \
        | sed 's/`//g' | sort -u)
    for ref in $refs; do
        while IFS= read -r path; do
            if [ ! -e "$path" ]; then
                echo "$doc: stale path reference: $path"
                status=1
            fi
        done < <(expand "$ref")
    done
done

# The README must link the architecture overview.
if ! grep -q 'ARCHITECTURE.md' README.md; then
    echo "README.md: missing link to ARCHITECTURE.md"
    status=1
fi

exit $status
