#!/usr/bin/env bash
# Verifies that every relative markdown link in the repo's documentation
# points at a file that exists. External (http/https/mailto) links and
# pure #anchors are skipped; a `path#anchor` link is checked for `path`.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

# Tracked markdown only: the link contract covers what ships in the repo.
broken=$(
    git ls-files '*.md' | while IFS= read -r doc; do
        dir=$(dirname "$doc")
        # Extract the (target) of every [text](target) occurrence. A
        # file without links makes grep exit 1, which pipefail would
        # turn into a failure of the whole check.
        { grep -oE '\]\([^)]+\)' "$doc" 2>/dev/null || true; } |
            sed -E 's/^\]\(//; s/\)$//' |
            while IFS= read -r target; do
                case "$target" in
                    http://* | https://* | mailto:* | '#'*) continue ;;
                esac
                path="${target%%#*}"
                [ -n "$path" ] || continue
                if [ ! -e "$dir/$path" ]; then
                    echo "BROKEN: $doc -> $target"
                fi
            done
    done
)

if [ -n "$broken" ]; then
    echo "$broken"
    echo "doc link check failed" >&2
    exit 1
fi
echo "doc links OK"

# ---- service contract drift (docs/service.md vs crates/serve) -----------
# The wire contract documented in docs/service.md must match the serve
# crate: every documented route exists in the router, every routed path
# is documented, and the documented api_version is the crate constant.
doc=docs/service.md
router=crates/serve/src/server.rs
drift=""

# Documented routes -> normalized "METHOD /v1/seg/*/seg" (placeholders
# like <id> become *).
doc_routes=$(
    grep -oE '(GET|POST) /v1[a-z0-9./<>_-]*' "$doc" |
        sed -E 's/<[a-z_]+>/*/g; s|/[0-9]+|/*|g; s|/[a-z_-]+\.[a-z]+|/*|g' | sort -u
)

# Routed paths -> the same normalization, from match arms shaped
# ("GET", ["v1", "jobs", id, "events"]).
src_routes=$(
    grep -oE '\("(GET|POST)", \[[^]]+\]\)' "$router" |
        sed -E 's/^\("([A-Z]+)", \[(.*)\]\)$/\1 \2/' |
        while IFS= read -r line; do
            method=${line%% *}
            segs=$(echo "${line#* }" | tr ',' '\n' | sed -E 's/^ *//; s/ *$//' |
                sed -E '/^"/{s/^"(.*)"$/\1/;b;}; s/^[a-z_]+$/*/')
            echo "$method /$(echo "$segs" | paste -sd/ -)"
        done | sort -u
)

while IFS= read -r route; do
    [ -n "$route" ] || continue
    if ! printf '%s\n' "$src_routes" | grep -qxF "$route"; then
        drift="$drift
DRIFT: $doc documents \"$route\" but $router does not route it"
    fi
done <<EOF
$doc_routes
EOF

while IFS= read -r route; do
    [ -n "$route" ] || continue
    if ! printf '%s\n' "$doc_routes" | grep -qxF "$route"; then
        drift="$drift
DRIFT: $router routes \"$route\" but $doc does not document it"
    fi
done <<EOF
$src_routes
EOF

# The documented API version must be the crate constant.
crate_version=$(grep -oE 'pub const API_VERSION: u32 = [0-9]+' crates/serve/src/lib.rs |
    grep -oE '[0-9]+$')
if ! grep -qE "\"api_version\": $crate_version\b" "$doc"; then
    drift="$drift
DRIFT: $doc does not show \"api_version\": $crate_version (the wfbb_serve::API_VERSION constant)"
fi

if [ -n "$drift" ]; then
    echo "$drift"
    echo "service contract drift check failed" >&2
    exit 1
fi
echo "service contract OK (api_version $crate_version, $(printf '%s\n' "$doc_routes" | wc -l | tr -d ' ') routes)"
