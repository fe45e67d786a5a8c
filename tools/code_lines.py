#!/usr/bin/env python3
"""Count the code lines a diff adds and deletes, apart from comments and blanks.

    python3 tools/code_lines.py BASE [REV] -- PATH...

Compares revision BASE with REV, or with the working tree when REV is left
out (untracked, unignored files count as added). For every changed file
under the PATHs it prints the code lines added and deleted and their net,
then the comment lines and the blank lines added and deleted, and a total
row. A line is a comment when all it holds besides whitespace is comment:
`//` and `/* */` in C and C++ files, `#` in Python, shell and CMake files.
A line with code and a comment counts as code; every other file type has
only code and blank lines. Each line is classified in its whole file, so a
line inside a block comment that starts above the hunk counts as comment.
Renames count as a deletion and an addition.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

KINDS = ("code", "comment", "blank")
C_SUFFIXES = {".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp", ".hxx"}
HASH_SUFFIXES = {".py", ".sh", ".cmake"}
HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def classify_c(lines):
    """The kind of each line of a C or C++ file."""
    kinds = []
    in_block = False
    for line in lines:
        code = False
        comment = False
        quote = None
        i = 0
        while i < len(line):
            if in_block:
                comment = True
                if line.startswith("*/", i):
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            ch = line[i]
            if quote:
                if ch == "\\":
                    i += 1
                elif ch == quote:
                    quote = None
            elif line.startswith("//", i):
                comment = True
                break
            elif line.startswith("/*", i):
                in_block = True
                comment = True
                i += 1
            elif ch == '"' or (ch == "'" and not (i > 0 and line[i - 1].isalnum())):
                # A ' after a digit or letter is a digit separator (1'000).
                quote = ch
                code = True
            elif not ch.isspace():
                code = True
            i += 1
        kinds.append("code" if code else "comment" if comment else "blank")
    return kinds


def classify_hash(lines):
    """The kind of each line of a file whose comments start with #."""
    return ["blank" if not line.strip()
            else "comment" if line.lstrip().startswith("#") else "code"
            for line in lines]


def classify(path, text):
    lines = text.splitlines()
    p = Path(path)
    if p.suffix in C_SUFFIXES:
        return classify_c(lines)
    if p.suffix in HASH_SUFFIXES or p.name == "CMakeLists.txt":
        return classify_hash(lines)
    return ["code" if line.strip() else "blank" for line in lines]


def changed_lines(diff):
    """(deleted old line numbers, added new line numbers) of a -U0 diff."""
    deleted, added = [], []
    for line in diff.splitlines():
        m = HUNK.match(line)
        if m:
            old_start, old_count, new_start, new_count = m.groups()
            old_count = 1 if old_count is None else int(old_count)
            new_count = 1 if new_count is None else int(new_count)
            deleted += range(int(old_start), int(old_start) + old_count)
            added += range(int(new_start), int(new_start) + new_count)
    return deleted, added


def git(*args):
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout


def content(rev, path):
    """A file's text at `rev` (None: the working tree); '' where absent."""
    if rev is None:
        p = Path(path)
        return p.read_text(errors="replace") if p.is_file() else ""
    try:
        return git("show", f"{rev}:{path}")
    except subprocess.CalledProcessError:
        return ""


def count(base, rev, paths):
    """{file: {kind: [added, deleted]}} for every file changed under paths,
    run from the top of the work tree."""
    revs = [base] + ([rev] if rev is not None else [])
    files = git("diff", "--no-renames", "--name-only", *revs, "--",
                *paths).split()
    untracked = [] if rev is not None else git(
        "ls-files", "--others", "--exclude-standard", "--full-name", "--",
        *paths).split()
    counts = {}
    for path in sorted(set(files) | set(untracked)):
        old = classify(path, content(base, path))
        new = classify(path, content(rev, path))
        if path in untracked:
            deleted, added = [], range(1, len(new) + 1)
        else:
            deleted, added = changed_lines(
                git("diff", "--no-renames", "-U0", *revs, "--", path))
        tally = {kind: [0, 0] for kind in KINDS}
        for n in added:
            tally[new[n - 1]][0] += 1
        for n in deleted:
            tally[old[n - 1]][1] += 1
        counts[path] = tally
    return counts


def report(counts):
    """The table: one row per file, then the total."""
    total = {kind: [0, 0] for kind in KINDS}
    width = max([len(p) for p in counts] + [len("total")])
    rows = [f"{'file':<{width}}  code+  code-    net  comment+  comment-"
            "  blank+  blank-"]
    for path, tally in list(counts.items()) + [("total", total)]:
        if path != "total":
            for kind in KINDS:
                total[kind][0] += tally[kind][0]
                total[kind][1] += tally[kind][1]
        code, comment, blank = (tally[kind] for kind in KINDS)
        rows.append(f"{path:<{width}}  {code[0]:5d}  {code[1]:5d}"
                    f"  {code[0] - code[1]:+5d}  {comment[0]:8d}"
                    f"  {comment[1]:8d}  {blank[0]:6d}  {blank[1]:6d}")
    return "\n".join(rows)


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    revs, paths = argv[:split], argv[split + 1:]
    if not 1 <= len(revs) <= 2 or not paths:
        sys.exit(__doc__)
    rev = revs[1] if len(revs) == 2 else None
    # git names files from the top of the work tree.
    paths = [os.path.abspath(p) for p in paths]
    os.chdir(git("rev-parse", "--show-toplevel").strip())
    print(report(count(revs[0], rev, paths)))


if __name__ == "__main__":
    main(sys.argv[1:])
