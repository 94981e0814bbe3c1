#!/usr/bin/env python3
"""Docs consistency gate.

Five checks, each of which has actually drifted (or would silently
drift) in real projects:

1. The constants table in docs/FORMAT.md matches the authoritative
   values in src/core/container.hpp (entry sizes, format versions, the
   reserved selector byte).
2. The worked-example snippet embedded in docs/BACKENDS.md is
   byte-identical to the marked region of examples/custom_backend.cpp —
   the file that CI compiles and runs — so the guide can never show
   code that no longer builds.
3. Every intra-repo markdown link in README.md, ROADMAP.md and docs/
   resolves: the target file exists and, when a #fragment is given, the
   target heading exists.
4. The span/counter catalogue in docs/TELEMETRY.md matches the
   instrumentation macros actually present in src/ and examples/: every
   name used in code is documented, and every documented name exists in
   code (so the catalogue can neither lag nor accumulate ghosts).
5. Every backticked repo path (`src/...`, `tests/...`, `scripts/...`,
   `bench/...`, `examples/...`, `docs/...`, `tacbench/...`) in README.md,
   ROADMAP.md and docs/*.md exists. Plain backticks are not links, so
   check 3 would not notice a file they name being deleted.

Exit 0 when everything holds, 1 with a per-failure report otherwise.
Stdlib only; run from anywhere (paths resolve relative to the repo
root, one directory above this script).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONTAINER_HPP = ROOT / "src" / "core" / "container.hpp"
FORMAT_MD = ROOT / "docs" / "FORMAT.md"
BACKENDS_MD = ROOT / "docs" / "BACKENDS.md"
TELEMETRY_MD = ROOT / "docs" / "TELEMETRY.md"
EXAMPLE_CPP = ROOT / "examples" / "custom_backend.cpp"
LINK_SCAN = ["README.md", "ROADMAP.md", "docs/FORMAT.md", "docs/BACKENDS.md",
             "docs/TELEMETRY.md"]

# The documented constants the header must agree on.
CHECKED_CONSTANTS = [
    "kFormatVersion",
    "kMinFormatVersion",
    "kPayloadEntryBytes",
    "kPayloadEntryV3Bytes",
    "kPayloadEntryV4Bytes",
    "kSelectorFixed",
]

errors = []


def fail(msg: str) -> None:
    errors.append(msg)


# ------------------------------------------------------------------ check 1
def header_constants() -> dict:
    """Parses `inline constexpr <type> kName = <expr>;` definitions,
    resolving expressions of the form `<literal>` or `<name> + <literal>`
    (the only shapes container.hpp uses)."""
    text = CONTAINER_HPP.read_text(encoding="utf-8")
    defs = re.findall(
        r"inline constexpr [\w:]+\s+(k\w+)\s*=\s*([^;]+);", text)
    values = {}
    for name, expr in defs:
        expr = expr.strip()
        m = re.fullmatch(r"(k\w+)\s*\+\s*(\d+)", expr)
        if m:
            base, add = m.group(1), int(m.group(2))
            if base not in values:
                fail(f"container.hpp: {name} refers to {base} "
                     "before it is defined")
                continue
            values[name] = values[base] + add
            continue
        try:
            values[name] = int(expr, 0)
        except ValueError:
            pass  # non-integer constexpr (not one we check)
    return values


def doc_constants() -> dict:
    """Parses the `| \\`kName\\` | value |` rows of FORMAT.md's
    constants table."""
    text = FORMAT_MD.read_text(encoding="utf-8")
    rows = re.findall(r"^\|\s*`(k\w+)`\s*\|\s*([0-9][0-9a-fA-Fx]*)\s*\|",
                      text, flags=re.MULTILINE)
    return {name: int(value, 0) for name, value in rows}


def check_constants() -> None:
    actual = header_constants()
    documented = doc_constants()
    for name in CHECKED_CONSTANTS:
        if name not in actual:
            fail(f"container.hpp: constant {name} not found (renamed? "
                 "update CHECKED_CONSTANTS and docs/FORMAT.md together)")
        elif name not in documented:
            fail(f"docs/FORMAT.md: constants table is missing {name}")
        elif actual[name] != documented[name]:
            fail(f"docs/FORMAT.md documents {name} = {documented[name]} "
                 f"but container.hpp defines {actual[name]}")


# ------------------------------------------------------------------ check 2
def check_snippet() -> None:
    cpp = EXAMPLE_CPP.read_text(encoding="utf-8").splitlines()
    try:
        begin = cpp.index("// [backends-guide:passthrough]")
        end = cpp.index("// [backends-guide:end]")
    except ValueError:
        fail("examples/custom_backend.cpp: snippet markers "
             "[backends-guide:passthrough] / [backends-guide:end] not found")
        return
    from_cpp = "\n".join(cpp[begin + 1:end])

    md = BACKENDS_MD.read_text(encoding="utf-8")
    m = re.search(
        r"<!-- snippet: passthrough -->\n```cpp\n(.*?)\n```\n<!-- snippet-end -->",
        md, flags=re.DOTALL)
    if not m:
        fail("docs/BACKENDS.md: fenced block between "
             "<!-- snippet: passthrough --> and <!-- snippet-end --> "
             "not found")
        return
    from_md = m.group(1)

    if from_cpp != from_md:
        cpp_lines, md_lines = from_cpp.splitlines(), from_md.splitlines()
        detail = f"{len(cpp_lines)} vs {len(md_lines)} lines"
        for i, (a, b) in enumerate(zip(cpp_lines, md_lines)):
            if a != b:
                detail = (f"first difference at snippet line {i + 1}:\n"
                          f"  cpp: {a}\n  doc: {b}")
                break
        fail("docs/BACKENDS.md passthrough snippet differs from the marked "
             f"region of examples/custom_backend.cpp ({detail})")


# ------------------------------------------------------------------ check 3
def slug(heading: str) -> str:
    """GitHub-style heading anchor: lowercase, drop everything but word
    characters / spaces / hyphens, spaces to hyphens."""
    s = heading.strip().lower()
    s = re.sub(r"[^\w\- ]", "", s)
    return s.replace(" ", "-")


def anchors_of(path: Path) -> set:
    text = path.read_text(encoding="utf-8")
    out = set()
    in_fence = False
    for line in text.splitlines():
        if line.startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence and (m := re.match(r"#{1,6}\s+(.*)", line)):
            out.add(slug(m.group(1)))
    return out


def check_links() -> None:
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for rel in LINK_SCAN:
        src = ROOT / rel
        if not src.exists():
            fail(f"{rel}: file listed for link checking does not exist")
            continue
        for target in link_re.findall(src.read_text(encoding="utf-8")):
            if re.match(r"[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path_part, _, fragment = target.partition("#")
            dest = (src.parent / path_part).resolve() if path_part else src
            if not dest.exists():
                fail(f"{rel}: broken link -> {target} "
                     f"(no such file {path_part})")
                continue
            if fragment and dest.suffix == ".md":
                if slug(fragment) not in anchors_of(dest):
                    fail(f"{rel}: broken anchor -> {target} "
                         f"(no heading #{fragment} in {path_part or rel})")


# ------------------------------------------------------------------ check 4
# One alternative per instrumentation shape: plain/byte-attributed spans,
# named span locals, counters, and the registry-internal counter() calls.
TELEMETRY_MACRO_RE = re.compile(
    r'TAC_SPAN(?:_BYTES)?\(\s*"([^"]+)"'
    r'|TAC_SPAN_NAMED\(\s*\w+\s*,\s*"([^"]+)"'
    r'|TAC_COUNTER_(?:ADD|MAX)\(\s*"([^"]+)"'
    r'|\bcounter\(\s*"([^"]+)"\s*\)')


def telemetry_names_in_code() -> set:
    names = set()
    sources = sorted((ROOT / "src").rglob("*.cpp"))
    sources += sorted((ROOT / "src").rglob("*.hpp"))
    sources += sorted((ROOT / "examples").glob("*.cpp"))
    for path in sources:
        # The subsystem header documents the macros with placeholder
        # names ("layer.op"); skip it so examples in comments don't count
        # as instrumentation sites.
        if path == ROOT / "src" / "common" / "telemetry.hpp":
            continue
        for match in TELEMETRY_MACRO_RE.finditer(
                path.read_text(encoding="utf-8")):
            names.add(next(g for g in match.groups() if g is not None))
    return names


def telemetry_names_in_doc() -> set:
    text = TELEMETRY_MD.read_text(encoding="utf-8")
    m = re.search(r"<!-- telemetry-catalogue -->(.*?)"
                  r"<!-- telemetry-catalogue-end -->", text, flags=re.DOTALL)
    if m is None:
        fail("docs/TELEMETRY.md: catalogue markers "
             "<!-- telemetry-catalogue --> / "
             "<!-- telemetry-catalogue-end --> not found")
        return set()
    # Backticked dotted names only: `cli.<command>` and prose tokens do
    # not match, so dynamic span names are documented without being
    # treated as literals.
    return set(re.findall(r"`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`", m.group(1)))


def check_telemetry_catalogue() -> None:
    in_code = telemetry_names_in_code()
    in_doc = telemetry_names_in_doc()
    if not in_doc:
        return
    for name in sorted(in_code - in_doc):
        fail(f"docs/TELEMETRY.md: catalogue is missing `{name}` "
             "(used by an instrumentation macro in src/ or examples/)")
    for name in sorted(in_doc - in_code):
        fail(f"docs/TELEMETRY.md: catalogue lists `{name}` but no "
             "instrumentation macro in src/ or examples/ uses it")


# ------------------------------------------------------------------ check 5
REPO_PATH_RE = re.compile(
    r"`((?:src|tests|scripts|bench|examples|docs|tacbench)/[^`\s]*)`")


def path_exists(path: str) -> bool:
    """A documented path resolves when every `{a,b}` alternative exists as
    a file or directory, matches as a glob, or names a module or bench
    binary by its stem (`src/analysis/metrics`, `bench/tab02_throughput`).
    A trailing `:line` or `:first-last` reference is ignored."""
    path = re.sub(r":\d+(?:-\d+)?$", "", path)
    m = re.search(r"\{([^}]*)\}", path)
    if m:
        return all(path_exists(path[:m.start()] + alt + path[m.end():])
                   for alt in m.group(1).split(","))
    if any(c in path for c in "*?["):
        return any(ROOT.glob(path))
    return any((ROOT / (path + suffix)).exists()
               for suffix in ("", ".cpp", ".hpp"))


def check_repo_paths() -> None:
    docs = ["README.md", "ROADMAP.md"]
    docs += sorted(str(p.relative_to(ROOT))
                   for p in (ROOT / "docs").glob("*.md"))
    for rel in docs:
        text = (ROOT / rel).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for path in REPO_PATH_RE.findall(line):
                if not path_exists(path):
                    fail(f"{rel}:{lineno}: `{path}` names no file in the repo")


def main() -> int:
    for path in (CONTAINER_HPP, FORMAT_MD, BACKENDS_MD, TELEMETRY_MD,
                 EXAMPLE_CPP):
        if not path.exists():
            fail(f"missing required file {path.relative_to(ROOT)}")
    if not errors:
        check_constants()
        check_snippet()
        check_links()
        check_telemetry_catalogue()
        check_repo_paths()
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print("check_docs: constants, guide snippet, doc links, telemetry "
          "catalogue and repo paths all consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
