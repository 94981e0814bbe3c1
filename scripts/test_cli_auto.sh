#!/bin/sh
# CLI round-trip for the auto selector: a mixed-method v4 container must
# survive compress -> info -> decompress -> per-level extract through
# tac_file_tool, and a damaged selector byte must exit with code 4.
#
# Usage: test_cli_auto.sh <path-to-tac_file_tool>
set -eu

TOOL=${1:?usage: test_cli_auto.sh <tac_file_tool>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/tac_cli_auto.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TOOL" gen in.amr 64 >/dev/null || fail "gen"
"$TOOL" compress in.amr out.tac 1e-4 --method=auto >compress.log ||
  fail "compress --method=auto"
grep -q "per-level winners" compress.log || fail "no winners line"

"$TOOL" info out.tac >info.log || fail "info"
grep -q "method auto" info.log || fail "info: header method not auto"
grep -Eq "payload 0: .*method (TAC|1D|zMesh|3D)" info.log ||
  fail "info: no per-payload method column"

"$TOOL" decompress out.tac back.amr >/dev/null || fail "decompress"
"$TOOL" extract out.tac l0.amr --level=0 >/dev/null || fail "extract level 0"
"$TOOL" extract out.tac l1.amr --level=1 >/dev/null || fail "extract level 1"

# Flip payload 0's selector byte to an unregistered tag: the tool must
# refuse with the corrupt-container exit code (4) and say "selector".
# The index (varint count, 1 byte here, + n 22-byte entries) ends exactly
# where payload 0 begins; the selector is the last byte of entry 0.
off=$(grep -o "payload 0: offset [0-9]*" info.log | grep -o "[0-9]*$")
n=$(grep -c "payload [0-9]*: offset" info.log)
sel=$((off - n * 22 + 21))
python3 -c "
d = bytearray(open('out.tac', 'rb').read())
assert d[4] == 4, f'expected format v4, got {d[4]}'
d[$sel] = 250
open('out.tac', 'wb').write(bytes(d))
"
set +e
"$TOOL" decompress out.tac bad.amr >/dev/null 2>err.log
rc=$?
set -e
[ "$rc" -eq 4 ] || fail "damaged selector byte: expected exit 4, got $rc"
grep -q "selector" err.log || fail "damaged selector byte: untyped error"

echo "cli auto round-trip OK ($n payloads)"
