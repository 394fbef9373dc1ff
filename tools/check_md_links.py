#!/usr/bin/env python3
"""Checks that relative markdown links in the repo resolve to real files.

Scans every tracked *.md file for inline links/images `[text](target)` and
reference definitions `[label]: target`, skips absolute URLs (http/https/
mailto) and pure in-page anchors (#...), strips #fragments from file targets,
and verifies the referenced path exists relative to the linking file.

Also scans the comments of every tracked source file under src/, tests/,
bench/ and tools/ (C++ `//` and `/* */`, `#` elsewhere) for names of
markdown files, and verifies each one exists: relative to the repo root,
to the commenting file's directory or to any directory between the two.

Run from anywhere inside the repo: `python3 tools/check_md_links.py`.
Exits non-zero listing every dangling link or comment reference (the CI
docs job runs this to catch stale cross-references when files move).
"""

import os
import re
import subprocess
import sys

INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
MD_NAME = re.compile(r"\b\w[\w./-]*?\.md\b")
CODE_DIRS = ("src/", "tests/", "bench/", "tools/")
CPP_EXTS = (".cpp", ".hpp", ".h", ".inc", ".cc")
LINE_COMMENT = re.compile(r"//(.*)$|/\*(.*?)\*/", re.MULTILINE | re.DOTALL)
HASH_COMMENT = re.compile(r"#(.*)$", re.MULTILINE)


def repo_root() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except Exception:
        return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def repo_files(root: str):
    try:
        out = subprocess.run(
            ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
            cwd=root, capture_output=True, text=True, check=True)
        files = out.stdout.splitlines()
        if files:
            return files
    except Exception:
        pass
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in {".git", "build"}]
        for f in filenames:
            found.append(os.path.relpath(os.path.join(dirpath, f), root))
    return found


def md_files(root: str):
    return [f for f in repo_files(root) if f.endswith(".md")]


def comment_refs(root: str):
    """Yields (file, name, resolved-or-None) for every markdown file a source
    comment under CODE_DIRS names."""
    for rel in repo_files(root):
        if not rel.startswith(CODE_DIRS) or rel.endswith(".md"):
            continue
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError):
            continue
        pattern = LINE_COMMENT if rel.endswith(CPP_EXTS) else HASH_COMMENT
        comments = " ".join(g for m in pattern.finditer(text) for g in m.groups() if g)
        for name in MD_NAME.findall(comments):
            # The commenting file's directory, then each one above it.
            bases, d = [], os.path.dirname(rel)
            while d:
                bases.append(d)
                d = os.path.dirname(d)
            bases.append("")
            hit = next((os.path.join(b, name) for b in bases
                        if os.path.exists(os.path.join(root, b, name))), None)
            yield rel, name, hit


def main() -> int:
    root = repo_root()
    broken = []
    checked = 0
    for rel in md_files(root):
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            broken.append((rel, "<unreadable>", str(e)))
            continue
        targets = INLINE.findall(text) + REFDEF.findall(text)
        for target in targets:
            if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            if file_part.startswith("/"):
                resolved = os.path.join(root, file_part.lstrip("/"))
            else:
                resolved = os.path.join(os.path.dirname(path), file_part)
            checked += 1
            if not os.path.exists(resolved):
                broken.append((rel, target, os.path.relpath(resolved, root)))
    refs = 0
    for rel, name, hit in comment_refs(root):
        refs += 1
        if hit is None:
            broken.append((rel, name, f"{name} (named in a comment)"))
    if broken:
        print(f"{len(broken)} dangling markdown link(s) or comment reference(s):")
        for rel, target, resolved in broken:
            print(f"  {rel}: ({target}) -> missing {resolved}")
        return 1
    print(f"ok: {checked} relative links resolve across {len(md_files(root))} markdown files, "
          f"and {refs} markdown names in source comments exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
