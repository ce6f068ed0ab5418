#!/usr/bin/env python3
"""Lists the code that no program reaches, and gates it.

The programs are the workspace binaries, the examples and `dynbench`. The
script builds them in debug (dynbench into its own target directory, with
`dynbench/Cargo.lock` restored afterwards, because that build rewrites
it), and reads `nm -C --defined-only` of each. The linker keeps only the
functions reachable from a program's `main`, and an unoptimised build
inlines almost nothing, so a function that has a symbol in some program
is reached and one that has none is not.

**Functions.** Every `fn` with a body in `crates/*/src`, outside
`#[cfg(test)]` items and `macro_rules!` bodies, is listed when its full
path appears in no program. The path is the crate and module (from the
file path and any inline `mod`), then the inherent impl type
(`Type::name`), the trait for a trait's default method (`Trait::name`),
or `<Type as Trait>::name` for a trait impl, whose type may be defined in
another module or crate. A fn nested in another fn is `outer::inner`.
Closures (`{{closure}}`) and the generic arguments of monomorphised
copies map back to the `fn` they belong to.

**Items with no symbol.** Each `pub struct`, `enum`, `trait` or `const`
in `crates/*/src` is listed when its name (as a whole word) appears in
no non-test code other than its own declaration. Non-test code is
`crates/*/src`, `src/`, `examples/` and `dynbench/src/`, each file cut
at its first line that is exactly `#[cfg(test)]`, with its full-line
`//`, `///` and `//!` comments stripped. A type's own doc comment and its
`impl` blocks count as its declaration, and `pub use` re-exports are not
references.

**Blind spots.** The symbol rule cannot see:
- a `const fn` reached only through `const` evaluation, which leaves no
  symbol: it is listed although a program uses it;
- a trait method that a `dyn` vtable keeps alive: it has a symbol
  whether or not anything calls it through the vtable;
- an `#[inline(always)]` body, which even a debug build inlines into its
  callers: it is listed although a program reaches it;
- impls that clippy requires beside a live one, such as `is_empty`
  beside a `pub len` (`len_without_is_empty`) and `Default` beside
  `new()` (`new_without_default`): they are listed although deleting
  them fails the clippy gate.
A name a `macro_rules!` body defines is not counted at all.

Every listed item must be on `KEEP`, which gives the reason it stays.
The script exits 1 when it lists an item that is not on `KEEP` (delete
it, give it a caller, or add it with its reason) and when a `KEEP` entry
is no longer listed (the entry is stale: drop it).

Run from the repository root:

    python3 scripts/census.py

It prints one `path kind name status` line per listed item and per
stale entry on stdout, the failures again on stderr, and the count.
"""
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

# `path name` -> why the item stays although no program reaches it.
KEEP = {
    # ROADMAP item 1: the fuzzer gives the input boundary's decoders a caller.
    "crates/common/src/codec.rs ByteWriter::put_i64": "item 1: the i64 field encoder of the Value codec",
    "crates/common/src/codec.rs ByteWriter::put_f64": "item 1: the f64 field encoder of the Value codec",
    "crates/common/src/codec.rs ByteReader::take_i64": "item 1: the i64 field decoder of the Value codec",
    "crates/common/src/codec.rs ByteReader::take_f64": "item 1: the f64 field decoder of the Value codec",
    "crates/common/src/codec.rs ByteWriter::new": "item 1: Value::encode's writer",
    "crates/common/src/codec.rs ByteReader::is_empty": "item 1: Value::decode rejects trailing bytes with it",
    "crates/common/src/codec.rs ByteReader::position": "item 1: Value::decode reports where trailing bytes start",
    "crates/common/src/value.rs DataType::is_zero_sized": "item 1: Value::decode's guard against arrays of zero-sized elements",
    "crates/common/src/value.rs Value::conforms_to": "item 1: checks a decoded Value against its type",
    "crates/common/src/value.rs Value::decode": "item 1: a fuzz target",
    "crates/common/src/value.rs Value::decode_from": "item 1: Value::decode's reader form",
    "crates/common/src/value.rs Value::decode_counted": "item 1: Value::decode's element-budget core",
    "crates/common/src/value.rs Value::encode": "item 1: makes the valid seeds the decoder must round-trip",
    "crates/common/src/value.rs Value::encode_into": "item 1: Value::encode's writer form",
    "crates/obs/src/timeseries.rs TelemetryRing::from_json": "item 1: a fuzz target",
    "crates/obs/src/timeseries.rs timeseries::read_u64_map": "item 1: TelemetryRing::from_json's counter reader",
    "crates/obs/src/timeseries.rs timeseries::read_i64_map": "item 1: TelemetryRing::from_json's gauge reader",
    "crates/security/src/sign.rs Signature::from_bytes": "item 1: the signature decoder",
    "crates/security/src/sign.rs Signature::to_bytes": "item 1: the encoding Signature::from_bytes inverts",
    # ROADMAP item 6: the verification engine's latency bound calls these.
    "crates/net/src/analysis.rs EthernetAnalysis": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs EthFlowSpec::new": "item 6: builds EthernetAnalysis's flows",
    "crates/net/src/analysis.rs EthernetAnalysis::new": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs EthernetAnalysis::timed": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs EthernetAnalysis::utilization": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs EthernetAnalysis::response_times": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs EthernetAnalysis::is_schedulable": "item 6: DESIGN.md's 802.1p WCRT analysis",
    "crates/net/src/analysis.rs analysis::utilization": "item 6: the load both WCRT analyses report",
    "crates/net/src/analysis.rs analysis::worst_case_gate_delay": "item 6: DESIGN.md's TSN gate-delay bound",
    "crates/net/src/tsn.rs GateControlList::cycle": "item 6: worst_case_gate_delay reads the cycle",
    "crates/net/src/tsn.rs GateControlList::windows": "item 6: worst_case_gate_delay reads the windows",
    "crates/net/src/can.rs CanAnalysis::utilization": "item 6: the CAN bus load check",
    "crates/net/src/can.rs CanAnalysis::is_schedulable": "item 6: the CAN WCRT verdict",
    # ROADMAP item 9: every NDA runs under a server.
    "crates/core/src/node.rs PlatformNode::configure_nda_server": "item 9: DESIGN.md's compositional server admission for NDAs",
    "crates/core/src/node.rs PlatformNode::nda_server": "item 9: reads the node's NDA server",
    "crates/sched/src/server.rs PeriodicServer::as_host_task": "item 9: admits the server against the DA set",
    "crates/sched/src/server.rs ServerAnalysis::server": "item 9: reads the analysed server",
    # ROADMAP items 4 and 5.
    "crates/comm/src/ring.rs SpscRing::capacity": "item 4: comm::ring, which dynbench links, goes whole",
    "crates/net/src/flexray.rs SlotAssignment::assign": "item 5: FlexRay static slots through the fabric",
    # The conservation properties read every arbiter's queue through it.
    "crates/net/src/can.rs <CanArbiter as Arbiter>::pending": "Arbiter::pending, which the conservation properties read",
    "crates/net/src/ethernet.rs <FifoPort as Arbiter>::pending": "Arbiter::pending, which the conservation properties read",
    "crates/net/src/ethernet.rs <StrictPriorityPort as Arbiter>::pending": "Arbiter::pending, which the conservation properties read",
    "crates/net/src/flexray.rs <FlexRayBus as Arbiter>::pending": "Arbiter::pending, which the conservation properties read",
    "crates/net/src/tsn.rs <TsnGatedPort as Arbiter>::pending": "Arbiter::pending, which the conservation properties read",
    # Only one unit test calls each of these, and deleting it deletes that
    # whole test; ROADMAP item 8's next round deletes them with it.
    "crates/common/src/rng.rs SplitMix64::stream": "only rng's stream_matches_split_seed calls it",
    "crates/fleet/src/campaign.rs UpdateMaster::attach_flight_recorder": "only campaign's gate_trip_pairs_with_a_flight_dump calls it",
    "crates/obs/src/snapshot.rs HistogramSnapshot::mean": "only snapshot's mean_handles_empty calls it",
    "crates/obs/src/trace.rs FlightRecorder::clear": "only trace's clear_resets_but_keeps_armed_state calls it",
    "crates/security/src/package.rs KeyRegistry::revoke": "only package's revoked_key_stops_verifying calls it",
    # Safety code: never print key material.
    "crates/security/src/sign.rs <KeyPair as Debug>::fmt": "redacts the secret key",
    "crates/security/src/sign.rs <PublicKey as Debug>::fmt": "redacts key material",
    # DESIGN.md lines that name what these do.
    "crates/model/src/generate.rs generate::monitor_specs": "DESIGN.md's monitor specs generator",
    "crates/monitor/src/task.rs MonitorSpec::with_jitter_bound": "monitor_specs sets each spec's jitter bound",
    "crates/core/src/update.rs update::update_path": "DESIGN.md's distributed update paths over dependency graphs",
    "crates/core/src/platform.rs DynamicPlatform::stop_app": "DESIGN.md's app lifecycle: its only stop",
    "crates/core/src/platform.rs DynamicPlatform::set_update_master": "DESIGN.md's update master for weak ECUs: the platform's only way to get one",
    "crates/core/src/platform.rs DynamicPlatform::merge_permissions": "DESIGN.md's runtime permission adjustment",
    "crates/core/src/platform.rs DynamicPlatform::refresh_directory": "DESIGN.md's service discovery TTL: renews offers before they expire",
    "crates/obs/src/snapshot.rs HistogramSnapshot::merge": "DESIGN.md section 10: the snapshot merge that carries the sketch contract over",
    # Derives elsewhere require these.
    "crates/comm/src/fabric.rs <Fabric as Debug>::fmt": "the derived Debug of EventBus, RpcClient and the other handles that borrow a Fabric",
    # Clippy requires these beside a reached `len` or argument-less `new`.
    "crates/core/src/degradation.rs <DegradationManager as Default>::default": "clippy new_without_default: DegradationManager::new() is reached",
    "crates/security/src/sha256.rs <Sha256 as Default>::default": "clippy new_without_default: Sha256::new() is reached",
    "crates/dse/src/pareto.rs ParetoArchive::is_empty": "clippy len_without_is_empty: ParetoArchive::len is reached",
    "crates/security/src/authz.rs AccessControlMatrix::is_empty": "clippy len_without_is_empty: AccessControlMatrix::len is reached",
    "crates/monitor/src/uncertainty.rs RollingRegression::is_empty": "clippy len_without_is_empty: RollingRegression::len is reached",
    # `std::error::Error` requires Display.
    "crates/core/src/redundancy.rs <RedundancyError as Display>::fmt": "required by its std::error::Error impl",
    "crates/core/src/update.rs <PathError as Display>::fmt": "required by its std::error::Error impl",
    "crates/faults/src/plan.rs <PlanError as Display>::fmt": "required by its std::error::Error impl",
    "crates/fleet/src/campaign.rs <SpecError as Display>::fmt": "required by its std::error::Error impl",
    "crates/model/src/dsl.rs <ParseError as Display>::fmt": "required by its std::error::Error impl",
    "crates/net/src/tsn.rs <GclError as Display>::fmt": "required by its std::error::Error impl",
    "crates/security/src/authn.rs <AuthError as Display>::fmt": "required by its std::error::Error impl",
}

DECL = re.compile(r"^\s*pub (?:const |unsafe )?(struct|enum|trait|const) ([A-Za-z_]\w*)", re.M)
DYNBENCH_TARGET = "target/census-dynbench"


# --- Programs and their symbols --------------------------------------------


def cargo_programs(args, env=None):
    """Builds with `cargo build ARGS` and returns the executables it made."""
    out = subprocess.run(
        ["cargo", "build", "--offline", "--quiet", "--message-format=json", *args],
        env=env,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    ).stdout
    exes = []
    for line in out.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes.append(msg["executable"])
    return exes


def build_programs():
    exes = cargo_programs(["--workspace", "--bins", "--examples"])
    lock = "dynbench/Cargo.lock"
    with tempfile.NamedTemporaryFile(delete=False) as saved:
        shutil.copyfile(lock, saved.name)
    try:
        env = dict(os.environ, CARGO_TARGET_DIR=DYNBENCH_TARGET)
        exes += cargo_programs(["--manifest-path", "dynbench/Cargo.toml"], env)
    finally:
        shutil.copyfile(saved.name, lock)
        os.unlink(saved.name)
    return exes


def close_of(text, i):
    """Index just past the `>` that closes the `<` at `text[i]`."""
    depth = 0
    while i < len(text):
        if text.startswith("->", i):
            i += 2
            continue
        depth += {"<": 1, ">": -1}.get(text[i], 0)
        i += 1
        if depth == 0:
            return i
    return i


def strip_generics(text):
    out, i = [], 0
    while i < len(text):
        if text[i] == "<":
            i = close_of(text, i)
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def type_key(text):
    """`(reference prefix, last path segment)` of a type, generics dropped."""
    text = re.sub(r"'\w+\s*", "", text).strip()
    m = re.match(r"((?:&\s*(?:mut\s+)?)*)(?:dyn\s+)?(.*)$", text)
    prefix = re.sub(r"\s+", " ", m.group(1).replace("&", " & ")).strip()
    return prefix, strip_generics(m.group(2)).strip().split("::")[-1].strip()


def symbol_keys(sym):
    """The keys a demangled symbol reaches (`Parser.record` makes the same shapes)."""
    sym = re.sub(r"(?:::\{\{[\w.]+\}\})+$", "", sym)
    sym = re.sub(r"\{\{[\w.]+\}\}$", "", sym)
    if sym.startswith("<"):
        end = close_of(sym, 0)
        inner, rest = sym[1 : end - 1], sym[end:]
        if not rest.startswith("::"):
            return []
        depth, split = 0, -1
        for i, c in enumerate(inner):
            depth += {"<": 1, ">": -1}.get(c, 0)
            if depth == 0 and inner.startswith(" as ", i):
                split = i
                break
        if split < 0:
            return []
        self_ty, trait = inner[:split], inner[split + 4 :]
        rest = strip_generics(rest[2:]).split("::")
        prefix, ty = type_key(self_ty)
        crates = {
            strip_generics(self_ty).lstrip("&* ").replace("mut ", "").split("::")[0],
            strip_generics(trait).split("::")[0],
        }
        tr = strip_generics(trait).split("::")[-1]
        # rest[0] is the method; anything after is a fn nested in it.
        return [("impl", c, prefix, ty, tr, "::".join(rest)) for c in crates] + [
            ("impl", c, prefix, "*", tr, "::".join(rest)) for c in crates
        ]
    path = strip_generics(sym).split("::")
    if not path[0].startswith("dynplat") and path[0] != "dynbench":
        return []
    keys = [("path", "::".join(path))]
    # An inherent method (or a trait's default method) of a type defined
    # in any module of the crate: crate, type, name.
    for k in range(1, len(path) - 1):
        keys.append(("member", path[0], path[k], "::".join(path[k + 1 :])))
    return keys


def reached_keys(exes):
    reached = set()
    for exe in exes:
        out = subprocess.run(
            ["nm", "-C", "--defined-only", exe], stdout=subprocess.PIPE, check=True, text=True
        ).stdout
        for line in out.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwW":
                reached.update(symbol_keys(parts[2]))
    return reached


# --- Functions in the source -----------------------------------------------

TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<line>//[^\n]*)
  | (?P<block>/\*)
  | (?P<raw>b?r(?P<hashes>\#*)")
  | (?P<str>b?"(?:\\.|[^"\\])*")
  | (?P<char>b?'(?:\\(?:u\{[0-9a-fA-F]+\}|x..|.)|[^'\\])')
  | (?P<life>'[A-Za-z_]\w*)
  | (?P<ident>(?:r\#)?[A-Za-z_]\w*)
  | (?P<num>[0-9][\w.]*)
  | (?P<punct>::|->|=>|.)
    """,
    re.X | re.S,
)


def tokens(text):
    """`(kind, text, line)` triples; comments and literals are dropped."""
    out, i, line = [], 0, 1
    while i < len(text):
        m = TOKEN.match(text, i)
        kind = m.lastgroup if m.lastgroup != "hashes" else "raw"
        j = m.end()
        if m.group("block"):
            depth = 1
            while depth and j < len(text):
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            kind = "block"
        elif m.group("raw"):
            close = '"' + m.group("hashes")
            j = text.index(close, j) + len(close)
            kind = "str"
        if kind in ("ident", "punct", "life"):
            out.append((kind, text[i:j], line))
        line += text.count("\n", i, j)
        i = j
    return out


def is_test_cfg(attr):
    """True for `cfg(test)` and `cfg(all(test, ..))`, not `cfg(not(test))`."""
    return re.match(r"cfg\((?:all\()?test\b", attr) is not None


class Parser:
    """Collects the `fn`s with bodies of one file, with their scopes."""

    def __init__(self, toks, module):
        self.t = toks
        self.fns = []  # (line, shown name, key)
        self.module = module

    def matching(self, i):
        """Index of the token that closes the bracket at `i`."""
        pairs = {"{": "}", "(": ")", "[": "]"}
        open_, close, depth = self.t[i][1], pairs[self.t[i][1]], 0
        while i < len(self.t):
            tok = self.t[i][1]
            if tok == open_:
                depth += 1
            elif tok == close:
                depth -= 1
                if depth == 0:
                    return i
            i += 1
        return i

    def header_end(self, i):
        """Index of the `{` or `;` that ends an item header starting at `i`."""
        depth = 0
        while i < len(self.t):
            tok = self.t[i][1]
            if tok in ("(", "["):
                i = self.matching(i) + 1
                continue
            if tok == "<":
                depth += 1
            elif tok == ">":
                depth -= 1
            elif tok in ("{", ";") and depth <= 0:
                return i
            i += 1
        return i

    def items(self, i, end, scope, test):
        """Walks tokens `i..end`; `scope` is `(module, ctx, fn_path)`."""
        pending_test = False
        prev = ";"
        while i < end:
            kind, tok, line = self.t[i]
            if tok == "#" and i + 1 < end and self.t[i + 1][1] in ("[", "!"):
                j = i + 1 if self.t[i + 1][1] == "[" else i + 2
                close = self.matching(j)
                attr = "".join(t[1] for t in self.t[j + 1 : close])
                pending_test |= is_test_cfg(attr)
                i, prev = close + 1, "]"
                continue
            item_start = prev in (";", "{", "}", "]", ")", "pub", "unsafe", "default", "const", "async", "extern")
            if tok == "macro_rules" and i + 2 < end and self.t[i + 1][1] == "!":
                j = i + 3
                close = self.matching(j)
                i, prev, pending_test = close + 1, "}", False
                continue
            if tok == "mod" and i + 2 < end and self.t[i + 2][1] == "{":
                close = self.matching(i + 2)
                module, _, _ = scope
                self.items(i + 3, close, (module + [self.t[i + 1][1]], None, None), test or pending_test)
                i, prev, pending_test = close + 1, "}", False
                continue
            if tok in ("impl", "trait") and item_start:
                h = self.header_end(i + 1)
                header = self.t[i + 1 : h]
                ctx = self.impl_ctx(header) if tok == "impl" else ("trait", header[0][1])
                if h < end and self.t[h][1] == "{":
                    close = self.matching(h)
                    module, _, _ = scope
                    self.items(h + 1, close, (module, ctx, None), test or pending_test)
                    i = close + 1
                else:
                    i = h + 1
                prev, pending_test = "}", False
                continue
            if tok == "fn" and kind == "ident" and i + 1 < end and self.t[i + 1][0] == "ident":
                name = self.t[i + 1][1]
                h = self.header_end(i + 2)
                if h < end and self.t[h][1] == "{":
                    close = self.matching(h)
                    fn_scope = self.record(scope, name, line, test or pending_test)
                    self.items(h + 1, close, fn_scope, test or pending_test)
                    i = close + 1
                else:
                    i = h + 1
                prev, pending_test = "}", False
                continue
            if tok == "{":
                close = self.matching(i)
                self.items(i + 1, close, scope, test or pending_test)
                i, prev, pending_test = close + 1, "}", False
                continue
            if tok == ";":
                pending_test = False
            prev = tok
            i += 1

    def impl_ctx(self, header):
        """`("inherent", Type)` or `("impl", Type, Trait, generic params)`."""
        params = set()
        k = 0
        if header and header[0][1] == "<":
            depth = 0
            for k, (kind, tok, _) in enumerate(header):
                depth += {"<": 1, ">": -1}.get(tok, 0)
                if kind == "ident" and depth == 1 and header[k - 1][1] in ("<", ","):
                    params.add(tok)
                if depth == 0:
                    break
            k += 1
        body = header[k:]
        where = next((j for j, t in enumerate(body) if t[1] == "where"), len(body))
        body = body[:where]
        depth, split = 0, -1
        for j, (_, tok, _) in enumerate(body):
            depth += {"<": 1, ">": -1}.get(tok, 0)
            if tok == "for" and depth == 0 and j > 0:
                split = j
                break
        text = lambda ts: " ".join(t[1] for t in ts).replace(" :: ", "::")
        if split < 0:
            return ("inherent", type_key(text(body))[1])
        prefix, ty = type_key(text(body[split + 1 :]))
        trait = strip_generics(text(body[:split]).lstrip("!")).split("::")[-1].strip()
        return ("impl", prefix, "*" if ty in params else ty, trait)

    def record(self, scope, name, line, test):
        module, ctx, fn_path = scope
        crate = module[0]
        if fn_path is not None:
            shown, key = fn_path[0] + "::" + name, fn_path[1][:-1] + (fn_path[1][-1] + "::" + name,)
        elif ctx is None:
            shown = "::".join(module[1:] + [name])
            key = ("path", "::".join(module + [name]))
        elif ctx[0] in ("inherent", "trait"):
            shown = ctx[1] + "::" + name
            key = ("member", crate, ctx[1], name)
        else:
            _, prefix, ty, trait = ctx
            shown = f"<{(prefix + ' ' if prefix else '') + ty} as {trait}>::{name}"
            key = ("impl", crate, prefix, ty, trait, name)
        if not test:
            self.fns.append((line, shown, key))
        return (module, None, (shown, key))


def module_of(path):
    """`dynplat_comm::fabric` for `crates/comm/src/fabric.rs`, and so on."""
    crate_dir, rel = re.match(r"crates/([^/]+)/src/(.*)\.rs$", path).groups()
    with open(f"crates/{crate_dir}/Cargo.toml") as f:
        crate = re.search(r'^name = "([^"]+)"', f.read(), re.M).group(1).replace("-", "_")
    parts = rel.split("/")
    if parts[0] == "bin":
        # A binary is its own crate, named after its directory or file.
        crate, parts = parts[1].replace("-", "_"), parts[2:]
    if parts and parts[-1] in ("lib", "main", "mod"):
        parts = parts[:-1]
    return [crate] + parts


def unreached_fns(reached):
    hits = []
    for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
        with open(path) as f:
            parser = Parser(tokens(f.read()), module_of(path))
        parser.items(0, len(parser.t), (parser.module, None, None), False)
        for line, shown, key in parser.fns:
            if key not in reached:
                hits.append((path, line, "fn", shown))
    return hits


# --- Items with no symbol --------------------------------------------------


def non_test(text):
    cut = re.search(r"^#\[cfg\(test\)\]$", text, re.M)
    text = text if cut is None else text[: cut.start()]
    text = re.sub(r"^\s*//.*\n", "", text, flags=re.M)
    return re.sub(r"^\s*pub use [^;]*;", "", text, flags=re.M)


def strip_own(text, name):
    """Drops the type's doc comment and every `impl .. name .. { .. }` block."""
    text = re.sub(
        r"(?:^\s*///.*\n)+(?=(?:^\s*#\[.*\n)*^\s*pub (?:struct|enum|trait) " + name + r"\b)",
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


def unnamed_items():
    corpus = {}
    for pattern in ("crates/*/src", "src", "examples", "dynbench/src"):
        for path in sorted(glob.glob(pattern + "/**/*.rs", recursive=True)):
            with open(path) as f:
                corpus[path] = non_test(f.read())
    hits = []
    for path in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
        for m in DECL.finditer(corpus[path]):
            kind, name = m.groups()
            word = re.compile(r"\b" + name + r"\b")
            refs = sum(
                len(word.findall(strip_own(text, name) if p == path else text))
                for p, text in corpus.items()
            )
            if refs <= 1:
                line = corpus[path].count("\n", 0, m.start()) + 1
                hits.append((path, line, kind, name))
    return hits


def main():
    hits = unreached_fns(reached_keys(build_programs())) + unnamed_items()
    listed = {f"{path} {name}" for path, _, _, name in hits}
    failed = []
    for path, line, kind, name in hits:
        item = f"{path} {name}"
        status = "kept" if item in KEEP else "NOT-ON-KEEP"
        print(f"{path}:{line} {kind} {name} {status}")
        if item not in KEEP:
            failed.append(f"census: {item} is reached by no program and is not on KEEP")
    for item in sorted(KEEP.keys() - listed):
        print(f"{item} STALE-KEEP-ENTRY")
        failed.append(f"census: KEEP entry {item} is not listed any more (stale)")
    for line in failed:
        print(line, file=sys.stderr)
    print(f"{len(hits)} items listed, {len(KEEP)} on KEEP", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
