#!/usr/bin/env python3
"""CI docs gate: no stale path ever survives in the docs book.

Scans README.md and docs/*.md and validates two things against the
working tree:

  * every intra-repo markdown link ``[text](target)`` resolves —
    the target file exists (relative links resolve against the
    linking file's directory, root-relative ones against the repo
    root), and a ``#fragment`` on a markdown target matches a real
    heading of that file (GitHub slugification);
  * every backticked code path exists. A backticked token counts as
    a code path when it contains a ``/`` and is made only of path
    characters (``foo/bar.hpp``, ``src/core/fleet``,
    ``BENCH_*.json`` globs, trailing ``/`` for directories). Bare
    module names are resolved like the prose uses them:
    ``synth/plan_cache`` matches ``src/synth/plan_cache.hpp``; a
    row-local name like ``async/recalib_scheduler`` matches one
    directory level deeper under ``src/``.

It also scans the code under src/, bench/, tests/ and examples/:
every ``*.md`` file a comment or string there cites (``DESIGN.md
section 4``, ``docs/workloads.md``) must exist, resolved against the
repo root or the citing file's directory.

Failures print ``file:line: message`` (clickable in CI logs) and
the script exits nonzero. External links (http/https/mailto) and
pure-``#`` self-links are ignored. Pure stdlib.

Usage: scripts/check_docs.py [files...]   (default: README.md docs/*.md
       plus the code citation scan)
"""

import glob
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Top-level directories/files a root-relative code path may start
# with. Keeps prose like `gcc/clang` or `memo/replay` from being
# mistaken for paths.
ROOT_SEGMENTS = {
    "src", "docs", "bench", "tests", "scripts", "examples",
    ".github", "build", "qbench",
}

# Code trees whose *.md citations must resolve, and the file types
# scanned in them.
CODE_DIRS = ("src", "bench", "tests", "examples")
CODE_SUFFIXES = {".hpp", ".cpp", ".h", ".py", ".sh"}

# Module paths without a root prefix (`core/fleet`, `obs/trace`)
# resolve under src/ with these extensions.
MODULE_EXTENSIONS = ("", ".hpp", ".cpp", ".py", ".sh", ".md")

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`]+)`")
PATHY_RE = re.compile(r"^[A-Za-z0-9_.*/-]+$")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
MD_CITE_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def heading_slug(text):
    """GitHub-style anchor slug of one heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", text).strip().lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"\s+", "-", text)


def file_anchors(md_path):
    anchors = set()
    for line in md_path.read_text(encoding="utf-8").splitlines():
        m = HEADING_RE.match(line)
        if m:
            anchors.add(heading_slug(m.group(1)))
    return anchors


def resolve_glob(base, pattern):
    """True when `pattern` (may contain *) names something under
    `base`."""
    if "*" in pattern:
        return bool(glob.glob(str(base / pattern)))
    return (base / pattern).exists()


def code_path_ok(token):
    """True when a backticked path-looking token names something in
    the repo (module-name fallbacks included)."""
    token = token.rstrip("/")
    first = token.split("/", 1)[0]
    if first in ROOT_SEGMENTS:
        return resolve_glob(REPO, token)
    # Module form: `synth/plan_cache` -> src/synth/plan_cache.hpp;
    # one level deeper for row-local names like
    # `async/recalib_scheduler` -> src/calib/async/... .
    for ext in MODULE_EXTENSIONS:
        if resolve_glob(REPO / "src", token + ext):
            return True
        if glob.glob(str(REPO / "src" / "*" / (token + ext))):
            return True
    return False


def is_code_path_candidate(token):
    if not PATHY_RE.match(token):
        return False
    if "/" not in token:
        # Slashless: only the committed BENCH artifacts are checked
        # (generic filenames in prose are too ambiguous to resolve).
        return bool(re.match(r"^BENCH_[\w*]+\.json$", token))
    # Every segment must carry a letter: keeps `1/2/4/8` and
    # version-number prose out.
    return all(
        re.search(r"[A-Za-z]", seg) for seg in token.split("/") if seg
    )


def check_file(md_path, failures):
    text = md_path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                anchor, path = target[1:], md_path
            else:
                path_part, _, anchor = target.partition("#")
                path = (
                    REPO / path_part
                    if path_part.startswith((".github", "docs/"))
                    else md_path.parent / path_part
                )
                if not path.exists():
                    path = REPO / path_part  # root-relative fallback
                if not path.exists():
                    failures.append(
                        f"{md_path.relative_to(REPO)}:{lineno}: "
                        f"broken link target '{target}'"
                    )
                    continue
            if anchor and path.suffix == ".md":
                if anchor not in file_anchors(path):
                    failures.append(
                        f"{md_path.relative_to(REPO)}:{lineno}: "
                        f"no heading '#{anchor}' in "
                        f"{path.relative_to(REPO)}"
                    )
        for m in CODE_RE.finditer(line):
            token = m.group(1)
            if not is_code_path_candidate(token):
                continue
            if "/" not in token:  # BENCH_*.json artifacts
                if not resolve_glob(REPO, token):
                    failures.append(
                        f"{md_path.relative_to(REPO)}:{lineno}: "
                        f"stale artifact reference `{token}`"
                    )
                continue
            if not code_path_ok(token):
                failures.append(
                    f"{md_path.relative_to(REPO)}:{lineno}: "
                    f"stale code path `{token}`"
                )


def check_code_citations(failures):
    """Every *.md name cited in the code trees names a real file."""
    for top in CODE_DIRS:
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for m in MD_CITE_RE.finditer(line):
                    name = m.group(1)
                    if (REPO / name).exists():
                        continue
                    if (path.parent / name).exists():
                        continue
                    failures.append(
                        f"{path.relative_to(REPO)}:{lineno}: "
                        f"cites missing `{name}`"
                    )


def main(argv):
    if argv:
        files = [pathlib.Path(a).resolve() for a in argv]
    else:
        files = [REPO / "README.md"] + sorted(
            (REPO / "docs").glob("*.md")
        )
    failures = []
    checked = 0
    for md in files:
        if not md.exists():
            failures.append(f"{md}: file does not exist")
            continue
        checked += 1
        check_file(md, failures)
    if not argv:
        check_code_citations(failures)
    for f in failures:
        print(f)
    if failures:
        print(f"docs gate: FAIL ({len(failures)} stale references "
              f"across {checked} files)")
        return 1
    print(f"docs gate: OK ({checked} files, all links and code "
          "paths resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
