#!/bin/sh
# CLI round-trip for the auto selector: a mixed-method v4 container must
# survive compress -> info -> decompress -> per-level extract through
# tac_file_tool, and a damaged selector byte must exit with code 4, as
# must a selector byte that names another method in a fixed-method
# container and a 1D payload whose sz stream declares far more values
# than its level holds. File failures (a missing or directory input, an
# output in a missing directory) must exit with code 3, and an .amr file
# whose refinement ratio contradicts its level extents with code 4 on the
# zMesh and 3D paths, as must an .amr file with too few values.
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

# In a fixed-method container every selector byte must name the
# container's own method: relabel payload 0 with another built-in tag.
"$TOOL" compress in.amr fixed.tac 1e-4 --method=tac >/dev/null ||
  fail "compress --method=tac"
"$TOOL" info fixed.tac >fixed_info.log || fail "info (tac)"
off=$(grep -o "payload 0: offset [0-9]*" fixed_info.log | grep -o "[0-9]*$")
fixed_n=$(grep -c "payload [0-9]*: offset" fixed_info.log)
sel=$((off - fixed_n * 22 + 21))
python3 -c "
d = bytearray(open('fixed.tac', 'rb').read())
assert d[4] == 4, f'expected format v4, got {d[4]}'
assert d[$sel] == d[5], 'selector byte does not match the method tag'
d[$sel] = 0 if d[5] != 0 else 1
open('fixed.tac', 'wb').write(bytes(d))
"
set +e
"$TOOL" decompress fixed.tac bad.amr >/dev/null 2>err.log
rc=$?
set -e
[ "$rc" -eq 4 ] || fail "relabelled selector byte: expected exit 4, got $rc"
grep -q "selector" err.log || fail "relabelled selector byte: untyped error"

# Replace the last payload of a 1D container with a ~50-byte sz stream
# declaring 2^38 doubles (2 TiB), and fix that payload's index entry
# (length and CRC32). The decoder knows the level's valid-cell count, so
# it must refuse the stream before allocating anything: exit 4 with the
# declared count in the message, not an allocation failure.
"$TOOL" compress in.amr oned.tac 1e-4 --method=1d >/dev/null ||
  fail "compress --method=1d"
"$TOOL" info oned.tac >oned_info.log || fail "info (1d)"
python3 - oned.tac oned_info.log <<'PY'
import re, struct, sys, zlib
path, info = sys.argv[1], open(sys.argv[2]).read()
offsets = [int(o) for o in re.findall(r"payload \d+: offset (\d+)", info)]
def varint(v):
    out = bytearray()
    while True:
        b, v = v & 0x7F, v >> 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return bytes(out)
sz = (struct.pack("<HBB", 0x5A53, 1, 8) + varint(1 << 38) + varint(1) * 3
      + b"\0" + struct.pack("<ddd", 1.0, 1.0, 0.0) + varint(32768) + b"\0"
      + varint(8) + b"\0" + struct.pack("<d", 1.0))
payload = varint(len(sz)) + sz
d = bytearray(open(path, "rb").read())
assert d[4] == 4, f"expected format v4, got {d[4]}"
last = len(offsets) - 1
entry = offsets[0] - len(offsets) * 22 + last * 22  # 22-byte v4 entries
d = d[:offsets[last]] + payload  # the last payload runs to the end
struct.pack_into("<QI", d, entry + 8, len(payload), zlib.crc32(payload))
open(path, "wb").write(bytes(d))
PY
set +e
"$TOOL" decompress oned.tac bad.amr >/dev/null 2>err.log
rc=$?
set -e
[ "$rc" -eq 4 ] || fail "2^38-element sz stream: expected exit 4, got $rc"
grep -q "declares 274877906944 elements" err.log ||
  fail "2^38-element sz stream: not refused by its count: $(cat err.log)"

# expect_exit <code> <what> <command...>: run a tool command that must fail
# with exit code <code>.
expect_exit() {
  want=$1
  what=$2
  shift 2
  set +e
  "$@" >/dev/null 2>err.log
  rc=$?
  set -e
  [ "$rc" -eq "$want" ] ||
    fail "$what: expected exit $want, got $rc: $(cat err.log)"
}

mkdir adir
expect_exit 3 "missing .amr input" "$TOOL" compress missing.amr x.tac
expect_exit 3 "directory input" "$TOOL" compress adir x.tac
expect_exit 3 "unwritable gen output" "$TOOL" gen nodir/x.amr 16
"$TOOL" compress in.amr good.tac >/dev/null || fail "compress (tac)"
expect_exit 3 "unwritable decompress output" \
  "$TOOL" decompress good.tac nodir/x.amr

# The .amr header (magic u32, version u8, field name, ratio varint) is not
# checksummed: a ratio of 4 over extents that halve per level must be
# refused before the zMesh or 3D path indexes the finest grid by it.
python3 -c "
d = bytearray(open('in.amr', 'rb').read())
at = 6 + d[5]  # the one-byte name length, the name, then the ratio
assert d[at] == 2, f'expected ratio 2, got {d[at]}'
d[at] = 4
open('ratio.amr', 'wb').write(bytes(d))
"
for m in 3d zmesh; do
  expect_exit 4 "ratio 4 .amr, --method=$m" \
    "$TOOL" compress ratio.amr x.tac 1e-4 --method=$m
  grep -q "refinement ratio" err.log ||
    fail "ratio 4 .amr, --method=$m: untyped error: $(cat err.log)"
done

# An .amr file whose last value blob holds one value fewer than its mask's
# valid cells is a corrupt file (exit 4), not a bad command line (exit 2).
python3 - in.amr short.amr <<'PY'
import sys
d = open(sys.argv[1], "rb").read()
pos = 5  # magic u32, version u8
def varint():
    global pos
    v = shift = 0
    while True:
        b = d[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        shift += 7
        if not b & 0x80:
            return v
def enc(v):
    out = bytearray()
    while True:
        b, v = v & 0x7F, v >> 7
        out.append(b | (0x80 if v else 0))
        if not v:
            return bytes(out)
def skip_blob():
    global pos
    n = varint()
    pos += n
skip_blob()  # field name
varint()  # refinement ratio
for level in range(varint()):
    for axis in range(3):
        varint()
    skip_blob()  # mask blob
    at = pos
    n = varint()
    assert n >= 8 and n % 8 == 0, f"level {level}: value blob of {n} bytes"
    pos += n
assert pos == len(d), "trailing bytes after the last level"
out = d[:at] + enc(n - 8) + d[pos - n:pos - 8]
open(sys.argv[2], "wb").write(out)
PY
expect_exit 4 "short value blob .amr" "$TOOL" compress short.amr x.tac
grep -q "values" err.log ||
  fail "short value blob .amr: untyped error: $(cat err.log)"
expect_exit 4 "short value blob .amr, info" "$TOOL" info short.amr

echo "cli auto round-trip OK ($n payloads)"
