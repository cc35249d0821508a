#!/bin/sh
# Regenerate the committed golden suite artifact the diff_golden ctest
# gates on. Run after an *intentional* model change, review the
# `espsim diff` output against the old golden, and commit the result:
#
#   tools/update_golden.sh [build-dir]
#
# The sweep matrix here must stay in sync with the three golden-matrix
# suite commands in tools/generate_artifacts.cmake (--jobs 1, --jobs 8
# and --streaming): diff_golden and diff_streaming_golden hold their
# artifacts to this golden, every stat exactly.
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-${repo_root}/build}
espsim=${build_dir}/tools/espsim
golden=${repo_root}/tests/golden/suite_small.json

if [ ! -x "${espsim}" ]; then
    echo "error: ${espsim} not built (cmake --build ${build_dir})" >&2
    exit 1
fi

tmp=$(mktemp)
trap 'rm -f "${tmp}"' EXIT
"${espsim}" suite --apps amazon,bing --configs base,NL+S,Runahead+NL,ESP+NL \
    --jobs 1 --json "${tmp}"

if [ -f "${golden}" ]; then
    echo "# drift against the old golden:"
    "${espsim}" diff "${golden}" "${tmp}" || true
fi

mkdir -p "$(dirname "${golden}")"
cp "${tmp}" "${golden}"
echo "# wrote ${golden}"
