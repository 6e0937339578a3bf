#!/usr/bin/env python3
"""lockdiscipline: the SPEED lock-discipline linter.

Enforces the concurrency contract of src/common/annotated_lock.h and
docs/LOCK_ORDER.md at the places neither Clang Thread Safety Analysis nor
the run-time rank checker can reach (GCC builds, unexecuted paths, doc
drift):

  LD001  raw std lock/cv primitive (std::mutex, std::lock_guard, ...)
         outside src/common/annotated_lock.h — everything must go through
         the capability-annotated wrappers
  LD002  annotation discipline: a Mutex/SharedMutex member declared without
         an explicit LockRank, or a field documented as "guarded by" a lock
         without a GUARDED_BY() annotation
  LD003  rank order: the docs/LOCK_ORDER.md table and the LockRank enum out
         of sync, or a lexically nested acquisition whose rank does not
         strictly increase
  LD004  a lock held across a blocking transport/backend/enclave call
         (round_trip, send_frame/recv_frame, ecall, recover, sleep_for)

Suppression: `// lockdiscipline-allow: LDNNN <reason>` on the offending
line or the line above it. For LD004 the comment may also sit in the doc
block above the function, in which case it covers that whole function body
— blocking-under-lock exceptions are per-design-contract, not per-line
(each one must also be justified in docs/LOCK_ORDER.md's LD004 table).

Usage:
  tools/lint/lockdiscipline.py --check src/       # lint the tree, exit 1 on findings
  tools/lint/lockdiscipline.py --fixtures tools/lint/fixtures/lockdiscipline
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_LOCK_ORDER_DOC = REPO_ROOT / "docs" / "LOCK_ORDER.md"
DEFAULT_LOCK_HEADER = REPO_ROOT / "src" / "common" / "annotated_lock.h"

# The one file allowed to name the raw primitives (it wraps them).
WRAPPER_HEADER = "src/common/annotated_lock.h"

SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"//\s*lockdiscipline-allow:\s*(LD\d{3})")
EXPECT_RE = re.compile(r"//\s*EXPECT:\s*(LD\d{3})")
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

# `Mutex name{...};` / `SharedMutex name;` member/local declarations. The
# leading anchor rejects parameters (`foo(Mutex& m)`) and mentions in types.
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:speed::)?(Mutex|SharedMutex)\s+(\w+)\s*(\{[^}]*\})?\s*;"
)

# Rank resolution for the nesting check: declaration with a literal rank.
DECL_RANK_RE = re.compile(
    r"\b(?:Mutex|SharedMutex)\s+(\w+)\s*\{\s*LockRank::(k\w+)"
)

# Guard acquisitions. The expression's trailing identifier names the mutex
# (`shard.mu`, `node->mu`, `mu_`).
GUARD_RE = re.compile(
    r"\b(MutexLock|ReaderLock|WriterLock|ScopedLock)\s+\w+\s*[({]\s*([^);]*?)\s*[)}]"
)
TRAILING_IDENT_RE = re.compile(r"(\w+)\s*$")

# Blocking calls a held lock must not span (docs/LOCK_ORDER.md "Holding
# locks across blocking calls"). Member-call syntax only, so definitions
# (`Bytes round_trip(ByteView) override {`) don't fire.
BLOCKING_RE = re.compile(
    r"(?:->|\.)\s*(round_trip|link_round_trip|send_frame|recv_frame|ecall|"
    r"recover)\s*\(|std::this_thread::sleep_for"
)

GUARDED_PROSE_RE = re.compile(r"\bguard(?:s|ed)?\s+by\b", re.IGNORECASE)

ENUM_START_RE = re.compile(r"\benum\s+class\s+LockRank\b")
ENUM_ENTRY_RE = re.compile(r"^\s*(k\w+)\s*=\s*(\d+)\s*,")
DOC_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`(k\w+)`")


@dataclass
class Finding:
    path: str       # repo-relative (or lint-as) path
    line: int       # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class ActiveGuard:
    name: str
    rank_name: str | None
    rank: int | None
    depth: int
    line: int


def strip_comments_and_strings(line: str, in_block: bool) -> tuple[str, bool]:
    """Return (code, still_in_block_comment) with comments and string/char
    literal contents blanked so rules don't fire on prose."""
    out = []
    i, n = 0, len(line)
    state = None  # None | '"' | "'"
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        c = line[i]
        if state is None:
            if c == '/' and i + 1 < n and line[i + 1] == '/':
                break  # rest of line is a comment
            if c == '/' and i + 1 < n and line[i + 1] == '*':
                in_block = True
                i += 2
                continue
            if c in ('"', "'"):
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        else:
            if c == '\\':
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            i += 1
    return "".join(out), in_block


def collect_allows(lines: list[str]) -> dict[int, set[str]]:
    """Map line number -> rules suppressed there (same line or line above)."""
    allows: dict[int, set[str]] = {}
    for idx, line in enumerate(lines, start=1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(idx, set()).add(m.group(1))
            allows.setdefault(idx + 1, set()).add(m.group(1))
    return allows


def parse_enum_ranks(header_text: str) -> dict[str, int]:
    """LockRank enumerator -> numeric value, from annotated_lock.h."""
    ranks: dict[str, int] = {}
    in_enum = False
    for line in header_text.splitlines():
        if not in_enum:
            if ENUM_START_RE.search(line):
                in_enum = True
            continue
        if re.match(r"^\s*};", line):
            break
        m = ENUM_ENTRY_RE.match(line)
        if m:
            ranks[m.group(1)] = int(m.group(2))
    return ranks


def parse_doc_ranks(doc_text: str) -> dict[str, tuple[int, int]]:
    """Enumerator -> (rank, doc line) from the LOCK_ORDER.md table."""
    ranks: dict[str, tuple[int, int]] = {}
    for idx, line in enumerate(doc_text.splitlines(), start=1):
        m = DOC_ROW_RE.match(line)
        if m:
            ranks[m.group(2)] = (int(m.group(1)), idx)
    return ranks


def check_doc_sync(enum_ranks: dict[str, int],
                   doc_ranks: dict[str, tuple[int, int]],
                   doc_path: str, header_path: str) -> list[Finding]:
    """LD003: the doc table and the enum must agree exactly."""
    findings: list[Finding] = []
    for name, value in enum_ranks.items():
        if name not in doc_ranks:
            findings.append(Finding(
                doc_path, 1, "LD003",
                f"LockRank::{name} ({value}) missing from the rank table"))
        elif doc_ranks[name][0] != value:
            findings.append(Finding(
                doc_path, doc_ranks[name][1], "LD003",
                f"rank table says {name} = {doc_ranks[name][0]} but "
                f"{header_path} says {value}"))
    for name, (value, lineno) in doc_ranks.items():
        if name not in enum_ranks:
            findings.append(Finding(
                doc_path, lineno, "LD003",
                f"rank table lists {name} = {value} but the LockRank enum "
                f"has no such enumerator"))
    return findings


def file_rank_map(lines_code: list[str],
                  enum_ranks: dict[str, int]) -> dict[str, tuple[str, int]]:
    """Mutex variable name -> (rank enumerator, value) for this file.
    Names bound to more than one rank in the file are dropped (ambiguous:
    e.g. `mu` in two different structs) — soundness over coverage."""
    seen: dict[str, tuple[str, int]] = {}
    ambiguous: set[str] = set()
    for code in lines_code:
        for m in DECL_RANK_RE.finditer(code):
            name, rank_name = m.group(1), m.group(2)
            if rank_name not in enum_ranks:
                continue
            entry = (rank_name, enum_ranks[rank_name])
            if name in seen and seen[name] != entry:
                ambiguous.add(name)
            seen[name] = entry
    for name in ambiguous:
        seen.pop(name, None)
    return seen


def lint_file(pretend_path: str, text: str,
              enum_ranks: dict[str, int]) -> list[Finding]:
    """Run LD001/LD002 and the scope-tracking LD003/LD004 over one file."""
    findings: list[Finding] = []
    lines = text.splitlines()
    allows = collect_allows(lines)

    # Pre-strip every line once (block-comment state threads through).
    lines_code: list[str] = []
    in_block = False
    for raw in lines:
        code, in_block = strip_comments_and_strings(raw, in_block)
        lines_code.append(code)

    ranks = file_rank_map(lines_code, enum_ranks)

    def add(lineno: int, rule: str, message: str) -> None:
        if rule in allows.get(lineno, set()):
            return
        findings.append(Finding(pretend_path, lineno, rule, message))

    depth = 0
    active: list[ActiveGuard] = []
    # Function-scope LD004 allowance: armed by a doc-block allow comment,
    # live while the brace depth stays above where the comment appeared.
    ld004_armed = False
    ld004_base_depth = 0
    ld004_entered = False
    ld004_armed_line = 0

    for idx, (raw, code) in enumerate(zip(lines, lines_code), start=1):
        if "LD004" in {m.group(1) for m in ALLOW_RE.finditer(raw)}:
            ld004_armed = True
            ld004_base_depth = depth
            ld004_entered = False
            ld004_armed_line = idx

        stripped = code.strip()
        if stripped:
            # LD001: raw primitives outside the wrapper header.
            if pretend_path != WRAPPER_HEADER:
                m = RAW_PRIMITIVE_RE.search(code)
                if m:
                    add(idx, "LD001",
                        f"raw std::{m.group(1)} outside {WRAPPER_HEADER}; "
                        f"use the annotated wrappers (Mutex, MutexLock, "
                        f"CondVar, ...)")

            # LD002a: Mutex member without an explicit LockRank.
            dm = MUTEX_DECL_RE.match(code)
            if dm and pretend_path != WRAPPER_HEADER:
                init = dm.group(3) or ""
                if "LockRank::" not in init:
                    add(idx, "LD002",
                        f"{dm.group(1)} `{dm.group(2)}` declared without an "
                        f"explicit LockRank — every lock must place itself "
                        f"in docs/LOCK_ORDER.md's total order")

            # LD002b: prose "guarded by" without the GUARDED_BY annotation.
            if GUARDED_PROSE_RE.search(raw) and not dm \
                    and stripped.endswith(";") and "GUARDED_BY" not in code:
                add(idx, "LD002",
                    "field documented as guarded by a lock but missing the "
                    "GUARDED_BY() annotation")

        # Comment-only "guarded by" line: check the next declaration line.
        if not stripped and GUARDED_PROSE_RE.search(raw) and idx < len(lines):
            nxt_code = lines_code[idx]
            nxt = nxt_code.strip()
            if nxt.endswith(";") and "GUARDED_BY" not in nxt_code \
                    and not MUTEX_DECL_RE.match(nxt_code) \
                    and not RAW_PRIMITIVE_RE.search(nxt_code):
                add(idx + 1, "LD002",
                    "field documented as guarded by a lock but missing the "
                    "GUARDED_BY() annotation")

        # New guard acquisitions on this line (recorded at current depth;
        # braces on the same line are counted after, which matches the
        # `MutexLock lock(mu_);` statement form used throughout).
        for gm in GUARD_RE.finditer(code):
            expr = gm.group(2)
            tm = TRAILING_IDENT_RE.search(expr)
            name = tm.group(1) if tm else expr
            entry = ranks.get(name)
            guard = ActiveGuard(
                name=name,
                rank_name=entry[0] if entry else None,
                rank=entry[1] if entry else None,
                depth=depth,
                line=idx,
            )
            # LD003 (nesting): a new acquisition must out-rank every lock
            # already held in this lexical scope chain.
            if guard.rank is not None:
                for held in active:
                    if held.rank is not None and guard.rank <= held.rank:
                        add(idx, "LD003",
                            f"acquiring {guard.rank_name} ({guard.rank}) "
                            f"while {held.rank_name} ({held.rank}) is held "
                            f"(line {held.line}); acquisition order must "
                            f"strictly increase — see docs/LOCK_ORDER.md")
            active.append(guard)

        # LD004: blocking call while any guard is lexically active.
        bm = BLOCKING_RE.search(code)
        if bm and active:
            suppressed = ld004_armed and (
                ld004_entered or idx - ld004_armed_line <= 2)
            if not suppressed:
                what = bm.group(1) or "std::this_thread::sleep_for"
                held = ", ".join(g.name for g in active)
                add(idx, "LD004",
                    f"blocking call `{what}` while holding {held}; release "
                    f"the lock first or allowlist the contract "
                    f"(docs/LOCK_ORDER.md)")

        # Brace tracking closes scopes and retires their guards.
        for ch in code:
            if ch == '{':
                depth += 1
                if ld004_armed:
                    ld004_entered = True
            elif ch == '}':
                depth -= 1
                active = [g for g in active if g.depth <= depth]
                if ld004_armed and ld004_entered and \
                        depth <= ld004_base_depth:
                    ld004_armed = False

    return findings


def iter_sources(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            out.extend(sorted(
                f for f in path.rglob("*")
                if f.suffix in SOURCE_SUFFIXES and f.is_file()))
        else:
            print(f"lockdiscipline: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def load_enum_ranks(header: Path) -> dict[str, int]:
    if not header.is_file():
        print(f"lockdiscipline: missing {header}", file=sys.stderr)
        sys.exit(2)
    ranks = parse_enum_ranks(header.read_text(encoding="utf-8"))
    if not ranks:
        print(f"lockdiscipline: no LockRank enum found in {header}",
              file=sys.stderr)
        sys.exit(2)
    return ranks


def run_check(paths: list[str], doc: Path, header: Path) -> int:
    enum_ranks = load_enum_ranks(header)
    findings: list[Finding] = []

    if doc.is_file():
        findings.extend(check_doc_sync(
            enum_ranks, parse_doc_ranks(doc.read_text(encoding="utf-8")),
            relpath(doc), relpath(header)))
    else:
        findings.append(Finding(relpath(doc), 1, "LD003",
                                "docs/LOCK_ORDER.md is missing"))

    files = iter_sources(paths)
    for f in files:
        findings.extend(lint_file(relpath(f),
                                  f.read_text(encoding="utf-8"), enum_ranks))

    for f in findings:
        print(f.render())
    print(f"lockdiscipline: {len(findings)} finding(s) in "
          f"{len(files)} file(s)")
    return 1 if findings else 0


def run_fixtures(fixture_dir: str, header: Path) -> int:
    """Self-test: every fixture declares its expected findings inline with
    `// EXPECT: LDNNN`; got-vs-expected must match exactly per line."""
    enum_ranks = load_enum_ranks(header)
    failures = 0
    files = iter_sources([fixture_dir])
    if not files:
        print(f"lockdiscipline: no fixtures found in {fixture_dir}",
              file=sys.stderr)
        return 2
    for f in files:
        text = f.read_text(encoding="utf-8")
        lines = text.splitlines()
        m = LINT_AS_RE.search(lines[0]) if lines else None
        pretend = m.group(1) if m else relpath(f)
        expected = set()
        for idx, line in enumerate(lines, start=1):
            for em in EXPECT_RE.finditer(line):
                expected.add((idx, em.group(1)))
        got = {(fd.line, fd.rule)
               for fd in lint_file(pretend, text, enum_ranks)}
        if got != expected:
            failures += 1
            print(f"FIXTURE MISMATCH {relpath(f)}")
            for lineno, rule in sorted(expected - got):
                print(f"  missing: line {lineno} {rule}")
            for lineno, rule in sorted(got - expected):
                print(f"  spurious: line {lineno} {rule}")
    total = len(files)
    print(f"lockdiscipline fixtures: {total - failures}/{total} ok")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", nargs="+", metavar="PATH",
                    help="lint these files/directories")
    ap.add_argument("--fixtures", metavar="DIR",
                    help="run the fixture self-test")
    ap.add_argument("--lock-order", default=str(DEFAULT_LOCK_ORDER_DOC),
                    help="path to docs/LOCK_ORDER.md")
    ap.add_argument("--lock-header", default=str(DEFAULT_LOCK_HEADER),
                    help="path to src/common/annotated_lock.h")
    args = ap.parse_args()

    header = Path(args.lock_header)
    if args.fixtures:
        return run_fixtures(args.fixtures, header)
    if args.check:
        return run_check(args.check, Path(args.lock_order), header)
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
