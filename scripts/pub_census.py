#!/usr/bin/env python3
"""Lists the public items that no program reaches, and gates them.

An item is each `pub fn`, `struct`, `enum`, `trait` or `const` declared in
`crates/*/src`. It is listed when its name (as a whole word) appears in no
non-test code other than its own declaration. Non-test code is
`crates/*/src`, `src/`, `examples/` and `dynbench/src/`, each file cut at
its first line that is exactly `#[cfg(test)]`, with its full-line `//`,
`///` and `//!` comments (doctests included) stripped. A type's own doc
comment and its `impl` blocks count as its declaration, and `pub use`
re-exports are not references. A mention in a trailing comment still
counts.

Every listed item must be on `KEEP`, which gives the reason it stays. The
script exits 1 when it lists an item that is not on `KEEP` (delete the
item, or give it a caller, or add it with its reason) and when a `KEEP`
entry is no longer listed (the entry is stale: drop it).

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


# `path name` -> why the item stays although no program calls it.
KEEP = {
    "crates/comm/src/fabric.rs fifo_for":
        "properties3 builds FIFO (no-isolation) ports for the run_batch path programs use",
    "crates/comm/src/fabric.rs set_gateway_delay":
        "properties3 and integration_network set the gateway store-and-forward delay of run_batch",
    "crates/core/src/node.rs configure_nda_server":
        "only caller of ServerAnalysis, DESIGN.md's compositional server admission for NDAs",
    "crates/core/src/node.rs monitor_mut":
        "integration tests drive a node's runtime monitor through it",
    "crates/core/src/platform.rs set_update_master":
        "integration tests configure the update master for crypto-less ECUs (§4.1) through it",
    "crates/core/src/platform.rs merge_permissions":
        "integration tests reach runtime permission updates through it",
    "crates/core/src/platform.rs refresh_directory":
        "integration tests reach service-directory renewal through it",
    "crates/core/src/platform.rs stop_app":
        "the platform's only lifecycle stop (DESIGN.md's app lifecycle), which integration tests use",
    "crates/core/src/update.rs update_path":
        "DESIGN.md's distributed update paths over dependency graphs",
    "crates/model/src/generate.rs monitor_specs":
        "DESIGN.md's monitor specs generator",
    "crates/monitor/src/report.rs has_faults":
        "tests query diagnostic reports that programs build through it",
    "crates/net/src/analysis.rs EthernetAnalysis":
        "DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs worst_case_gate_delay":
        "DESIGN.md's worst-case gate-delay bounds",
    "crates/xil/src/harness.rs all_passed":
        "tests query XiL reports that programs build through it",
}


def non_test(text):
    cut = re.search(r"^#\[cfg\(test\)\]$", text, re.M)
    text = text if cut is None else text[: cut.start()]
    text = re.sub(r"^\s*//.*\n", "", text, flags=re.M)
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
    listed = {f"{path} {name}" for path, _, name in hits}
    failed = False
    for item in sorted(listed - KEEP.keys()):
        print(f"pub_census: {item} has no caller outside tests and is not on KEEP", file=sys.stderr)
        failed = True
    for item in sorted(KEEP.keys() - listed):
        print(f"pub_census: KEEP entry {item} is not listed any more (stale)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
