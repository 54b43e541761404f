"""Seeded input generator for the benchmark.

Every input the benchmark feeds the program is written here, from the
workload seed alone: FutLang and MiniML program families with planted
deadlock twins, the paper's Section 3 counterexample members as textual
graph types, pinned copies of the six Table 1 programs, and TRACE_FORMAT
v1 dump sets. Nothing is taken from the program's own generators or
example directory, so a change to those cannot change a workload.

Each generated input carries its known answer (the expected exit code and,
for baseline ops, the expected GML verdict). Shapes are drawn from fixed
per-class quotas so that two seeds give the same mix of sizes; the seed
picks identifiers, literal values, which stage is poisoned, and the order.
"""

import os

PINNED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")

# Table 1 of the paper: (row, pinned file, DF exit code, GML reports deadlock).
# GML accepting the Counterex. row is the paper's point, not a bug here.
TABLE1 = [
    ("Fibonacci", "fibonacci.fut", 0, False),
    ("FibDL", "fib_dl.fut", 1, True),
    ("Pipeline", "pipeline.fut", 0, False),
    ("Counterex.", "counterex.fut", 1, False),
    ("Webserver", "webserver.fut", 0, False),
    ("WebserverDL", "webserver_dl.fut", 1, True),
]


def read_pinned(name):
    with open(os.path.join(PINNED_DIR, name), encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------------------
# FutLang families. Each returns (source, df_exit, gml_reports_deadlock).
# `p` is a per-file identifier prefix so no two files share a definition
# name; `dl` plants the deadlock twin.


def fut_chain(rng, p, k, dl):
    """A chain of k helpers, each owning one future whose body calls the
    previous helper. The twin touches one helper's future before its
    spawn (the paper's situation 1)."""
    bad = rng.randrange(1, k + 1) if dl else 0
    out = []
    for j in range(1, k + 1):
        call = f"{p}h{j - 1}() + {rng.randrange(1, 9)}" if j > 1 else str(rng.randrange(1, 99))
        out.append(f"fun {p}h{j}() -> int {{")
        out.append("  let u = new_future[int]();")
        if j == bad:
            out.append("  let early = touch(u);")
            out.append(f"  spawn u {{ return {call}; }}")
            out.append("  return early;")
        else:
            out.append(f"  spawn u {{ return {call}; }}")
            out.append("  return touch(u);")
        out.append("}")
    out.append("fun main() {")
    out.append(f"  print(int_to_string({p}h{k}()));")
    out.append("}")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


def fut_forkjoin(rng, p, depth, width, dl):
    """A fork-join tree: level d spawns `width` children running level d+1
    and joins them all; the leaves run a recursive divide-and-conquer sum.
    The twin makes two siblings of one level touch each other (a cycle)."""
    bad = rng.randrange(1, depth + 1) if dl else 0
    out = []
    out.append(f"fun {p}leaf(n: int) -> int {{")
    out.append("  if n <= 1 {")
    out.append("    return 1;")
    out.append("  } else {")
    out.append("    let l = new_future[int]();")
    out.append(f"    spawn l {{ return {p}leaf(n - 1); }}")
    out.append(f"    let r = {p}leaf(n - 2);")
    out.append("    return touch(l) + r;")
    out.append("  }")
    out.append("}")
    for d in range(depth, 0, -1):
        child = f"{p}lvl{d + 1}" if d < depth else f"{p}leaf"
        out.append(f"fun {p}lvl{d}(x: int) -> int {{")
        for i in range(width):
            out.append(f"  let c{i} = new_future[int]();")
        for i in range(width):
            arg = f"x + {rng.randrange(1, 5)}" if d < depth else str(rng.randrange(2, 6))
            if d == bad and i == 0:
                out.append(f"  spawn c0 {{ return touch(c1) + {child}({arg}); }}")
            elif d == bad and i == 1:
                out.append(f"  spawn c1 {{ return touch(c0) + {child}({arg}); }}")
            else:
                out.append(f"  spawn c{i} {{ return {child}({arg}); }}")
        out.append("  return " + " + ".join(f"touch(c{i})" for i in range(width)) + ";")
        out.append("}")
    out.append("fun main() {")
    out.append(f"  print(int_to_string({p}lvl1({rng.randrange(1, 50)})));")
    out.append("}")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


def fut_collection(rng, p, width, stages, dl):
    """Futures in collections (arXiv 2311.06984 style): a spawn_vec worker
    family, an indexed touch, a fan-in touch_all and a staged pipeline
    reading a source future. The twin is either a family whose members
    touch a future spawned only after the join, or a pipeline stage
    touching a future spawned after the pipeline."""
    kind = rng.randrange(2) if dl else -1
    out = []
    out.append(f"fun {p}sum(xs: list[int]) -> int {{")
    out.append("  if length(xs) == 0 {")
    out.append("    return 0;")
    out.append("  } else {")
    out.append(f"    return head(xs) + {p}sum(tail(xs));")
    out.append("  }")
    out.append("}")
    out.append("fun main() {")
    out.append("  let late = new_future[int]();")
    if kind == 0:
        out.append(f"  let fs = spawn_vec[int] {width} {{ return touch(late); }}")
    else:
        out.append(f"  let fs = spawn_vec[int] {width} {{ return {rng.randrange(1, 99)}; }}")
    out.append(f"  let first = touch(fs[{rng.randrange(width)}]);")
    out.append(f"  let total = {p}sum(touch_all(fs)) + first;")
    if kind != 1:
        out.append(f"  spawn late {{ return {rng.randrange(1, 99)}; }}")
    out.append("  let src = new_future[int]();")
    out.append("  spawn src { return total; }")
    out.append("  pipeline {")
    for s in range(stages):
        if kind == 1 and s == 0:
            out.append("    stage { print(int_to_string(touch(late))); }")
        elif s == 0:
            out.append("    stage { print(int_to_string(touch(src))); }")
        else:
            out.append(f'    stage {{ print("{p}stage {s}"); }}')
    out.append("  }")
    if kind == 1:
        out.append(f"  spawn late {{ return {rng.randrange(1, 99)}; }}")
    out.append("  print(int_to_string(touch(late)));")
    out.append("}")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


def fut_webserver(rng, p, kernels, routes, dl):
    """A webserver-sized program in the shape of the paper's Webserver
    row: `kernels` pure helper functions, a per-request parse -> render
    future pipeline, a serialized logger chain threaded through a
    recursive acceptor, and a warm-cache future. The twin makes the parse
    stage wait for the render stage, which waits for it (WebserverDL)."""
    out = []
    for i in range(kernels):
        a, b, c = rng.randrange(3, 97), rng.randrange(1, 61), rng.randrange(101, 9973)
        out.append(f"fun {p}k{i}(n: int, acc: int) -> int {{")
        out.append("  if n <= 0 {")
        out.append(f"    return acc % {c};")
        out.append(f"  }} else if n % {rng.randrange(2, 5)} == 0 {{")
        out.append(f"    return {p}k{i}(n - 1, (acc * {a} + n) % {c});")
        out.append("  } else {")
        out.append(f"    return {p}k{i}(n - 2, acc + {b});")
        out.append("  }")
        out.append("}")
    out.append(f"fun {p}route_of(req: int) -> int {{")
    out.append(f"  return (req / 4) % {routes};")
    out.append("}")
    out.append(f"fun {p}dispatch(route: int, x: int) -> int {{")
    for r in range(routes):
        kw = "if" if r == 0 else "} else if"
        out.append(f"  {kw} route == {r} {{")
        out.append(f"    return {p}k{rng.randrange(kernels)}(x % 32, route);")
    out.append("  } else {")
    out.append("    return 0;")
    out.append("  }")
    out.append("}")
    out.append(f"fun {p}handle(req: int, warm: future[int]) -> int {{")
    out.append("  let parsed = new_future[int]();")
    out.append("  let rendered = new_future[int]();")
    if dl:
        out.append("  spawn parsed {")
        out.append(f"    let token = {p}k0(req % 48, req % 97);")
        out.append("    let probe = touch(rendered);")
        out.append("    return token + probe % 2;")
        out.append("  }")
    else:
        out.append(f"  spawn parsed {{ return {p}k0(req % 48, req % 97); }}")
    out.append("  spawn rendered {")
    out.append("    let token = touch(parsed);")
    out.append(f"    return {p}dispatch({p}route_of(req), token);")
    out.append("  }")
    out.append("  let size = touch(rendered);")
    out.append(f"  if {p}route_of(req) == {rng.randrange(routes)} {{")
    out.append("    return size + touch(warm) % 128;")
    out.append("  } else {")
    out.append("    return size;")
    out.append("  }")
    out.append("}")
    out.append(f"fun {p}serve(reqs: list[int], warm: future[int], log_prev: future[int], seq: int) -> int {{")
    out.append("  if length(reqs) == 0 {")
    out.append("    return touch(log_prev);")
    out.append("  } else {")
    out.append("    let req = head(reqs);")
    out.append("    let handler = new_future[int]();")
    out.append(f"    spawn handler {{ return {p}handle(req, warm); }}")
    out.append("    let log_next = new_future[int]();")
    out.append("    spawn log_next {")
    out.append("      let count = touch(log_prev);")
    out.append("      let status = touch(handler);")
    out.append("      print(int_to_string(seq + status));")
    out.append("      return count + 1;")
    out.append("    }")
    out.append(f"    let rest = {p}serve(tail(reqs), warm, log_next, seq + 1);")
    out.append("    return rest + touch(handler) % 2;")
    out.append("  }")
    out.append("}")
    out.append(f"fun {p}requests(n: int, seed: int) -> list[int] {{")
    out.append("  if n == 0 {")
    out.append("    return nil;")
    out.append("  } else {")
    out.append(f"    return cons({p}k{kernels - 1}(seed + n, n), {p}requests(n - 1, seed));")
    out.append("  }")
    out.append("}")
    out.append("fun main() {")
    out.append("  let warm = new_future[int]();")
    out.append(f"  spawn warm {{ return {p}k1(64, {rng.randrange(1, 99)}); }}")
    out.append("  let log_root = new_future[int]();")
    out.append("  spawn log_root { return 0; }")
    out.append(f"  let reqs = {p}requests({rng.randrange(8, 32)}, {rng.randrange(1, 9999)});")
    out.append(f"  print(int_to_string({p}serve(reqs, warm, log_root, 0)));")
    out.append("}")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


# ---------------------------------------------------------------------------
# MiniML twins of the chain and fork-join families.


def mml_chain(rng, p, k, dl):
    bad = rng.randrange(1, k + 1) if dl else 0
    out = []
    for j in range(1, k + 1):
        call = f"{p}h{j - 1} () + {rng.randrange(1, 9)}" if j > 1 else str(rng.randrange(1, 99))
        out.append(f"let {p}h{j} () : int =")
        out.append("  let u : int future = newfut () in")
        if j == bad:
            out.append("  let early : int = touch u in")
            out.append(f"  spawn u ({call});")
            out.append("  early")
        else:
            out.append(f"  spawn u ({call});")
            out.append("  touch u")
    out.append("let main () : unit =")
    out.append(f"  print (string_of_int ({p}h{k} ()))")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


def mml_forkjoin(rng, p, depth, width, dl):
    bad = rng.randrange(1, depth + 1) if dl else 0
    out = []
    out.append(f"let rec {p}leaf (n : int) : int =")
    out.append("  if n <= 1 then 1")
    out.append("  else")
    out.append("    let l : int future = newfut () in")
    out.append(f"    spawn l ({p}leaf (n - 1));")
    out.append(f"    let r : int = {p}leaf (n - 2) in")
    out.append("    touch l + r")
    for d in range(depth, 0, -1):
        child = f"{p}lvl{d + 1}" if d < depth else f"{p}leaf"
        out.append(f"let {p}lvl{d} (x : int) : int =")
        for i in range(width):
            out.append(f"  let c{i} : int future = newfut () in")
        for i in range(width):
            arg = f"(x + {rng.randrange(1, 5)})" if d < depth else str(rng.randrange(2, 6))
            if d == bad and i == 0:
                out.append(f"  spawn c0 (touch c1 + {child} {arg});")
            elif d == bad and i == 1:
                out.append(f"  spawn c1 (touch c0 + {child} {arg});")
            else:
                out.append(f"  spawn c{i} ({child} {arg});")
        out.append("  " + " + ".join(f"touch c{i}" for i in range(width)))
    out.append("let main () : unit =")
    out.append(f"  print (string_of_int ({p}lvl1 {rng.randrange(1, 50)}))")
    return "\n".join(out) + "\n", (1 if dl else 0), dl


# ---------------------------------------------------------------------------
# Section 3 counterexample member m as graph-type text. DF rejects every
# member; GML at 2 unrolls per binding accepts them (wrongly), and Table 1
# records that as its expected answer.


def gt_section3(m):
    a = ", ".join(f"a{i}" for i in range(1, m + 1))
    x = ", ".join(f"x{i}" for i in range(1, m + 1))
    sa = ", ".join([f"a{i}" for i in range(2, m + 1)] + ["u"])
    sx = ", ".join([f"x{i}" for i in range(2, m + 1)] + ["u"])
    us = ", ".join(f"u{i}" for i in range(1, m + 1))
    ws = ", ".join(f"w{i}" for i in range(1, m + 1))
    binders = "".join(f"new u{i}. " for i in range(1, m + 1))
    binders += "".join(f"new w{i}. " for i in range(1, m + 1))
    spawns = " ; ".join(f"1 / w{i}" for i in range(1, m + 1))
    fn = f"(rec g. pi[{a}; {x}]. new u. (1 | (~x1 ; 1 / a1 ; g[{sa}; {sx}])))"
    return f"# Section 3 member m = {m}\n{binders}{spawns} ; {fn}[{us}; {ws}]\n"


# ---------------------------------------------------------------------------
# corpus: a seeded sequence of files, every fourth with the GML baseline.
# Each block of 32 files holds the same multiset of classes, shuffled, so
# every size class keeps its share whatever the seed (steadiness rule 5).
# A class is (name, count per block, maker(rng, prefix) -> (src, exit,
# gml, extension)).


def _fut(maker):
    def make(rng, p, k):
        src, code, gml = maker(rng, p, k)
        return src, code, gml, ".fut"
    return make


def _mml(maker):
    def make(rng, p, k):
        src, code, gml = maker(rng, p, k)
        return src, code, gml, ".mml"
    return make


def _section3(rng, p, k):
    return gt_section3(1 + k % 4), 1, False, ".gt"


def _table1(rng, p, k):
    row, name, code, gml = TABLE1[k % len(TABLE1)]
    return read_pinned(name), code, gml, ".fut"


def _classes(spec):
    out = []
    for name, count, maker in spec:
        out.extend([(name, maker)] * count)
    return out


# A maker gets (rng, prefix, k), where k counts the class's earlier files
# from a seeded offset: sizes and variants cycle through k, so every seed
# gets the same counts of each, and the rng picks names and literals.

# 24 DF-only files per block.
CORPUS_PLAIN = _classes([
    ("chain-s", 3, _fut(lambda r, p, k: fut_chain(r, p, 2 + k % 3, False))),
    ("chain-s-dl", 1, _fut(lambda r, p, k: fut_chain(r, p, 2 + k % 3, True))),
    ("chain-m", 2, _fut(lambda r, p, k: fut_chain(r, p, 8 + k % 5, False))),
    ("chain-m-dl", 1, _fut(lambda r, p, k: fut_chain(r, p, 8 + k % 5, True))),
    ("forkjoin", 2, _fut(lambda r, p, k: fut_forkjoin(r, p, 2, 2, False))),
    ("forkjoin-dl", 1, _fut(lambda r, p, k: fut_forkjoin(r, p, 2, 2, True))),
    ("forkjoin-m", 1, _fut(lambda r, p, k: fut_forkjoin(r, p, 3, 3, False))),
    ("forkjoin-m-dl", 1, _fut(lambda r, p, k: fut_forkjoin(r, p, 3, 3, True))),
    ("collection", 2, _fut(lambda r, p, k: fut_collection(r, p, 2 + k % 5, 2 + k % 3, False))),
    ("collection-dl", 2, _fut(lambda r, p, k: fut_collection(r, p, 2 + k % 5, 2 + k % 3, True))),
    ("webserver", 1, _fut(lambda r, p, k: fut_webserver(r, p, 18 + k % 5, 5, False))),
    ("webserver-dl", 1, _fut(lambda r, p, k: fut_webserver(r, p, 18 + k % 5, 5, True))),
    ("mml-chain", 1, _mml(lambda r, p, k: mml_chain(r, p, 3 + k % 4, False))),
    ("mml-chain-dl", 1, _mml(lambda r, p, k: mml_chain(r, p, 3 + k % 4, True))),
    ("mml-forkjoin", 1, _mml(lambda r, p, k: mml_forkjoin(r, p, 2, 2, False))),
    ("section3", 1, _section3),
    ("table1", 2, _table1),
])

# 8 baseline files per block. The fork-join rows keep GML's many tiny
# graphs (2 per leaf call, so 2^leaves graphs) under op_ms_p99.
CORPUS_BASELINE = _classes([
    ("chain-s", 1, _fut(lambda r, p, k: fut_chain(r, p, 2 + k % 3, False))),
    ("chain-m-dl", 1, _fut(lambda r, p, k: fut_chain(r, p, 8 + k % 5, True))),
    ("collection-dl", 1, _fut(lambda r, p, k: fut_collection(r, p, 2 + k % 5, 2 + k % 3, True))),
    ("webserver", 1, _fut(lambda r, p, k: fut_webserver(r, p, 18 + k % 5, 5, k % 2 == 1))),
    ("section3", 1, _section3),
    ("table1", 1, _table1),
    ("forkjoin-gml", 1, _fut(lambda r, p, k: fut_forkjoin(r, p, 1, 6, k % 4 == 0))),
    ("mml-forkjoin-gml", 1, _mml(lambda r, p, k: mml_forkjoin(r, p, 2, 2, k % 4 == 0))),
])

assert len(CORPUS_PLAIN) == 24 and len(CORPUS_BASELINE) == 8


def _tag(rng):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3))


def corpus_inputs(rng, wdir, blocks, warm_blocks):
    """Writes warm_blocks + blocks blocks of 32 files; returns manifest rows
    `w|o path baseline exit gml`."""
    rows = []
    index = 0
    seen = {}
    for b in range(warm_blocks + blocks):
        plain = CORPUS_PLAIN[:]
        base = CORPUS_BASELINE[:]
        rng.shuffle(plain)
        rng.shuffle(base)
        for slot in range(32):
            baseline = slot % 4 == 3
            name, maker = base.pop() if baseline else plain.pop()
            key = (baseline, name)
            if key not in seen:
                seen[key] = rng.randrange(60)
            k = seen[key]
            seen[key] += 1
            prefix = f"{_tag(rng)}{index}_"
            src, code, gml, ext = maker(rng, prefix, k)
            path = os.path.join(wdir, f"f{index:05d}{ext}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(src)
            kind = "w" if b < warm_blocks else "o"
            rows.append(f"{kind} {path} {int(baseline)} {code} {int(gml) if baseline else '-'} {name}")
            index += 1
    return rows


# ---------------------------------------------------------------------------
# daemon-edit: a project whose files each have a deadlock-free and a
# deadlocking variant of equal length, so an edit rewrites the file in
# place without truncating it.

# Per group of 17 files. Edits of the three mid-sized classes (chain-m,
# forkjoin, collection) cost about the same and hold the median request;
# webserver edits (1 file in 17) hold the p99. The webserver file of group
# g has 14 + g kernels, so the p99 lands on an input-determined file size.
DAEMON_PROJECT = [
    ("chain-s", 1, lambda r, p, g, dl: (fut_chain(r, p, r.randrange(2, 5), dl), ".fut")),
    ("mml-chain", 1, lambda r, p, g, dl: (mml_chain(r, p, r.randrange(3, 7), dl), ".mml")),
    ("chain-m", 4, lambda r, p, g, dl: (fut_chain(r, p, r.randrange(8, 13), dl), ".fut")),
    ("forkjoin", 4, lambda r, p, g, dl: (fut_forkjoin(r, p, 2, 2, dl), ".fut")),
    ("collection", 4, lambda r, p, g, dl: (fut_collection(r, p, r.randrange(2, 7), r.randrange(2, 5), dl), ".fut")),
    ("forkjoin-m", 2, lambda r, p, g, dl: (fut_forkjoin(r, p, 3, 3, dl), ".fut")),
    ("webserver", 1, lambda r, p, g, dl: (fut_webserver(r, p, 14 + g, 5, dl), ".fut")),
]


def _pad(src, length, ext):
    """Pads `src` to `length` (at least 5 more) with a trailing comment."""
    left, right = ("(*", "*)") if ext == ".mml" else ("#", "")
    return src + left + " " * (length - len(src) - len(left) - len(right) - 1) + right + "\n"


def daemon_inputs(rng, wdir, groups, requests):
    """Writes `groups` copies of DAEMON_PROJECT's file mix (each file's two
    variants in side files) and returns manifest rows: `f path free dl
    initial` per file, then `r e|h index` per request (3 edits in 4)."""
    rows = []
    files = []
    for g in range(groups):
        for name, count, maker in DAEMON_PROJECT:
            for _ in range(count):
                index = len(files)
                prefix = f"{_tag(rng)}{index}_"
                state = rng.getstate()
                (free, _, _), ext = maker(rng, prefix, g, False)
                rng.setstate(state)
                (dl, _, _), _ = maker(rng, prefix, g, True)
                length = max(len(free), len(dl)) + 8
                free, dl = _pad(free, length, ext), _pad(dl, length, ext)
                assert len(free) == len(dl) == length
                path = os.path.join(wdir, f"p{index:04d}{ext}")
                variants = []
                for tag, text in (("free", free), ("dl", dl)):
                    vpath = os.path.join(wdir, f"p{index:04d}.{tag}{ext}")
                    with open(vpath, "w", encoding="utf-8") as f:
                        f.write(text)
                    variants.append(vpath)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(free)
                files.append((path, variants, index % 2))
    for path, (free, dl), initial in files:
        rows.append(f"f {path} {free} {dl} {initial}")
    # Every file is edited equally often (a reshuffled round-robin), and
    # each block of four requests holds three edits and one unchanged
    # submit.
    edit_order = []
    hit_order = []
    for i in range(requests):
        if i % 4 == 0:
            block = ["e", "e", "e", "h"]
            rng.shuffle(block)
        kind = block[i % 4]
        order = edit_order if kind == "e" else hit_order
        if not order:
            order.extend(range(len(files)))
            rng.shuffle(order)
        rows.append(f"r {kind} {order.pop()}")
    return rows


# ---------------------------------------------------------------------------
# ingest: TRACE_FORMAT v1 dump sets written directly. A set is one
# execution: a tree of threads, each running a list of actions
# ("spawn", child) / ("touch", vertex). Records are laid out by a
# run-the-child-at-its-spawn schedule, so every spawn precedes its
# thread's records, and sharded by thread.


def _tree(parents):
    """Children lists from a parent array (node 0 is the root)."""
    kids = [[] for _ in parents]
    for v, p in enumerate(parents):
        if v:
            kids[p].append(v)
    return kids


def _fork_join_actions(kids, rng, touch_prob):
    """Each thread spawns its children in order and joins each child,
    mostly after all spawns (fork-join) and sometimes right after its own
    spawn (a nested join)."""
    actions = []
    for v, cs in enumerate(kids):
        acts = []
        later = []
        for c in cs:
            acts.append(("spawn", c))
            if rng.random() < touch_prob:
                acts.append(("touch", c))
            else:
                later.append(c)
        acts.extend(("touch", c) for c in later)
        actions.append(acts)
    return actions


def _poison(actions, parents, rng, how):
    """Plants a deadlock: a cycle between a thread and its ancestor, or a
    touch of a future no thread ever spawns."""
    n = len(parents)
    if how == "ghost":
        v = rng.randrange(n)
        actions[v].insert(rng.randrange(len(actions[v]) + 1), ("touch", "ghost"))
        return
    # Cycle: a thread v below the root's children touches its grandparent
    # (or its parent, when the grandparent is the root). Every thread joins
    # all its children, so that ancestor waits, through the path, for v.
    v = rng.choice([v for v in range(1, n) if parents[v] != 0])
    a = parents[parents[v]] or parents[v]
    actions[v].append(("touch", a))


def _name(tag, v):
    return "main" if v == 0 else f"{tag}{v}"


def write_dump_set(base, tag, actions, shards):
    """Writes the set as BASE.<k>.json; returns the event record count."""
    lines = [[] for _ in range(shards)]
    seq = 0

    def shard_of(v):
        return (v * 2654435761) % shards

    def run(v):
        nonlocal seq
        me = _name(tag, v)
        for kind, target in actions[v]:
            vertex = target if isinstance(target, str) else _name(tag, target)
            lines[shard_of(v)].append(
                f'{{"kind":"{kind}","seq":{seq},"thread":"{me}","vertex":"{vertex}"}}')
            seq += 1
            if kind == "spawn":
                run(target)
        if v:
            lines[shard_of(v)].append(
                f'{{"kind":"resolve","seq":{seq},"thread":"{me}","vertex":"{me}"}}')
            seq += 1

    run(0)
    for k in range(shards):
        with open(f"{base}.{k}.json", "w", encoding="utf-8") as f:
            f.write(f'{{"trace_version":1,"kind":"meta","shard":{k},"shards":{shards},"root":"main"}}\n')
            for line in lines[k]:
                f.write(line + "\n")
    return seq


def _shape(rng, cls, k):
    """Parent array and nested-join probability for the k-th set of class
    `cls`. Wide and bushy sets are reader-bound (merge); chains and deep
    random trees are TJ-bound, since the Transitive Joins replay grows
    super-linearly with spawn depth. The rare long chains set op_ms_p99:
    their depths step evenly through 230-354 with k, so the p99 lands on
    an input-determined depth instead of on timing noise among equal
    sets."""
    if cls == "wide":
        # A wide, shallow fan-out with a few grandchildren.
        width = rng.randrange(60, 71)
        parents = [0] * (width + 1)
        for c in range(1, width + 1):
            if rng.random() < 0.25:
                parents.append(c)
        return parents, 0.1
    if cls == "bushy":
        # Branching 3-5, breadth first, to about seventy threads.
        n = rng.randrange(65, 76)
        parents = [0]
        frontier = [0]
        while len(parents) < n:
            v = frontier.pop(0)
            for _ in range(rng.randrange(3, 6)):
                if len(parents) < n:
                    parents.append(v)
                    frontier.append(len(parents) - 1)
        return parents, 0.3
    if cls in ("chain", "long"):
        # A spawn chain, each link joining the next.
        depth = rng.randrange(120, 131) if cls == "chain" else 230 + 4 * (k % 32)
        return [0] + list(range(depth)), 1.0
    # "deep": a random tree whose parents are drawn from the four most
    # recent threads, so it grows deep as well as wide.
    n = rng.randrange(150, 161)
    parents = [0]
    for v in range(1, n):
        parents.append(max(0, v - 1 - rng.randrange(min(v, 4))))
    return parents, 0.5


def dump_set(rng, base, cls, k, poison=None):
    """Writes the k-th set of class `cls` as BASE.<shard>.json, poisoned
    with `poison` ("cycle" or "ghost") when given; returns its record
    count."""
    parents, touch_prob = _shape(rng, cls, k)
    actions = _fork_join_actions(_tree(parents), rng, touch_prob)
    if poison:
        _poison(actions, parents, rng, poison)
    return write_dump_set(base, _tag(rng), actions, rng.randrange(2, 7))


# Per block of 32 sets: (class, sets, of which poisoned). A quarter of the
# sets are poisoned. The chains span the 37th to 66th percentile, so the
# median falls inside that class; the long chains make up 1/32 of the
# ops, so the p99 falls inside theirs.
INGEST_BLOCK = [("wide", 6, 2), ("bushy", 6, 2), ("chain", 9, 2), ("deep", 10, 2), ("long", 1, 0)]


def ingest_inputs(rng, wdir, blocks, warm_blocks):
    """Writes warm_blocks + blocks blocks of 32 sets (INGEST_BLOCK; the
    poison alternates between a cycle and a never-spawned touch from block
    to block); returns rows `w|o pattern exit records label`."""
    rows = []
    index = 0
    seen = {cls: rng.randrange(32) for cls, _, _ in INGEST_BLOCK}
    for b in range(warm_blocks + blocks):
        slots = [(cls, k < poisoned) for cls, count, poisoned in INGEST_BLOCK for k in range(count)]
        rng.shuffle(slots)
        for cls, poisoned in slots:
            # One directory per set keeps each glob to a handful of entries.
            os.makedirs(os.path.join(wdir, f"s{index:05d}"))
            base = os.path.join(wdir, f"s{index:05d}", "dump")
            poison = ("ghost" if b % 2 else "cycle") if poisoned else None
            records = dump_set(rng, base, cls, seen[cls], poison)
            seen[cls] += 1
            kind = "w" if b < warm_blocks else "o"
            rows.append(f"{kind} {base}.*.json {int(poisoned)} {records} {cls}{'-poisoned' if poisoned else ''}")
            index += 1
    return rows
