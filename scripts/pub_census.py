#!/usr/bin/env python3
"""Lists the public items that no program reaches.

An item is each `pub fn`, `struct`, `enum`, `trait` or `const` declared in
`crates/*/src`. It is listed when its name (as a whole word) appears in no
non-test code other than its own declaration. Non-test code is
`crates/*/src`, `src/`, `examples/` and `dynbench/src/`, each file cut at
its first line that is exactly `#[cfg(test)]`. A type's own doc comment
and its `impl` blocks count as its declaration; `pub use` re-exports are
not references, but a mention in any other comment is.

Run from the repository root:

    python3 scripts/pub_census.py

It prints one `path kind name` line per item and the count on stderr.
"""
import glob
import re
import sys

DECL = re.compile(
    r"^\s*pub (?:const |unsafe )?(fn|struct|enum|trait|const) ([A-Za-z_]\w*)", re.M
)


def non_test(text):
    cut = re.search(r"^#\[cfg\(test\)\]$", text, re.M)
    text = text if cut is None else text[: cut.start()]
    return re.sub(r"^\s*pub use [^;]*;", "", text, flags=re.M)


def strip_own(text, name):
    """Drops the type's doc comment and every `impl .. name .. { .. }` block."""
    text = re.sub(
        r"(?:^\s*///.*\n)+(?=(?:^\s*#\[.*\n)*^\s*pub (?:struct|enum|trait) "
        + name
        + r"\b)",
        "",
        text,
        flags=re.M,
    )
    # Blank char literals such as '{' so that they do not unbalance braces.
    code = re.sub(r"'(?:\\.|[^'\\])'", "' '", text)
    out, pos = [], 0
    for m in re.finditer(r"^impl\b[^{;]*\b" + name + r"\b[^{;]*\{", code, re.M):
        out.append(text[pos : m.start()])
        depth, j = 0, m.end() - 1
        while j < len(code):
            depth += {"{": 1, "}": -1}.get(code[j], 0)
            j += 1
            if depth == 0:
                break
        pos = j
    out.append(text[pos:])
    return "".join(out)


def main():
    decl_files = sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))
    corpus = {}
    for pattern in ("crates/*/src", "src", "examples", "dynbench/src"):
        for path in sorted(glob.glob(pattern + "/**/*.rs", recursive=True)):
            with open(path) as f:
                corpus[path] = non_test(f.read())
    hits = []
    for path in decl_files:
        for m in DECL.finditer(corpus[path]):
            kind, name = m.groups()
            word = re.compile(r"\b" + name + r"\b")
            refs = sum(
                len(word.findall(strip_own(text, name) if p == path and kind != "fn" else text))
                for p, text in corpus.items()
            )
            if refs <= 1:
                hits.append((path, kind, name))
    for hit in hits:
        print(*hit)
    print(len(hits), "items", file=sys.stderr)


if __name__ == "__main__":
    main()
