#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <corpus|daemon-edit|ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark driver from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse
the build while the sources are unchanged.

A run generates its inputs from the seed (gen.py), checks a few pinned
known answers, then repeats passes of the workload, each a fresh driver
process with a fixed op sequence, until --seconds of passes are measured.
Every op's verdict is checked against its known answer, and every pass
must report the same verdict digest and the same counts. The last line of
standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics (medians over the passes); with --trace 1 the passes
alternate untraced and traced and it holds the per-layer metrics.
A detailed record (environment, every pass, the per-layer table) goes to
<build dir>/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing under perfbench/

import gen  # noqa: E402

BUILD_TYPE = "Release"

# Fixed op counts per pass (steadiness rule 2: a fixed op sequence in a
# fresh process, never a fixed duration).
SIZES = {
    "corpus": {"blocks": 48, "warm_blocks": 12},          # 1536 ops, 384 warm-up
    "daemon-edit": {"groups": 20, "requests": 2400},      # 340 files, 2400 requests
    "ingest": {"blocks": 32, "warm_blocks": 4},           # 1024 ops, 128 warm-up
}

MIN_PASSES = 3          # untraced passes per --trace 0 run
MIN_TRACED_PASSES = 2   # traced passes per --trace 1 run
PASS_TIMEOUT_S = 60
MIN_LAYER_SHARE = 0.9   # layer self times must cover 90% of traced op time


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def source_stamp():
    h = hashlib.sha256(BUILD_TYPE.encode())
    for top in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(path[len(ROOT):].encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def ensure_built(bdir):
    for need in (os.path.join(ROOT, "src", "gtdl"), os.path.join(ROOT, "bench", "bench_common.hpp")):
        if not os.path.exists(need):
            die(f"{need} not found; run from a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    cmake_dir = os.path.join(bdir, "cmake-" + BUILD_TYPE.lower())
    driver = os.path.join(cmake_dir, "perfbench_driver")
    stamp_path = os.path.join(cmake_dir, "perfbench.stamp")
    stamp = source_stamp()
    if os.path.exists(driver) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return driver
    log(f"building {BUILD_TYPE} into {cmake_dir}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", cmake_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                ["cmake", "--build", cmake_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(cmd))
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return driver


def mount_type(path):
    """Filesystem type of the mount holding `path` (from mountinfo)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, _, right = line.partition(" - ")
                point = left.split()[4].replace("\\040", " ")
                if (path == point or path.startswith(point.rstrip("/") + "/")) and len(point) >= len(best):
                    best, fstype = point, right.split()[0]
    except OSError:
        pass
    return fstype


def fresh_dir(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def generate(workload, seed, wdir):
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload]
    if workload == "corpus":
        rows = gen.corpus_inputs(rng, wdir, size["blocks"], size["warm_blocks"])
    elif workload == "daemon-edit":
        rows = gen.daemon_inputs(rng, wdir, size["groups"], size["requests"])
    else:
        rows = gen.ingest_inputs(rng, wdir, size["blocks"], size["warm_blocks"])
    manifest = os.path.join(wdir, "manifest.txt")
    with open(manifest, "w") as f:
        f.write("\n".join(rows) + "\n")
    return manifest


def run_pass(driver, workload, manifest, out, spans=None):
    cmd = [driver, workload, manifest, out]
    if spans:
        cmd += ["--trace", spans]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out) as f:
        result = json.load(f)
    result["wall_s"] = wall
    return result


# ---------------------------------------------------------------------------
# Self-test: a few known answers per input family, pinned here as literals
# (not taken from the generator's own bookkeeping).

SELF_TEST = [
    # (name, maker, baseline, DF exit, GML reports deadlock)
    ("chain", lambda r: gen.fut_chain(r, "st0_", 3, False), True, 0, 0),
    ("chain-dl", lambda r: gen.fut_chain(r, "st1_", 10, True), True, 1, 1),
    ("forkjoin", lambda r: gen.fut_forkjoin(r, "st2_", 2, 2, False), True, 0, 0),
    ("forkjoin-dl", lambda r: gen.fut_forkjoin(r, "st3_", 1, 6, True), True, 1, 1),
    ("collection", lambda r: gen.fut_collection(r, "st4_", 4, 3, False), True, 0, 0),
    ("collection-dl", lambda r: gen.fut_collection(r, "st5_", 3, 2, True), True, 1, 1),
    ("webserver", lambda r: gen.fut_webserver(r, "st6_", 18, 5, False), True, 0, 0),
    ("webserver-dl", lambda r: gen.fut_webserver(r, "st7_", 18, 5, True), True, 1, 1),
    ("mml-chain", lambda r: gen.mml_chain(r, "st8_", 4, False), True, 0, 0),
    ("mml-chain-dl", lambda r: gen.mml_chain(r, "st9_", 4, True), True, 1, 1),
    ("mml-forkjoin-dl", lambda r: gen.mml_forkjoin(r, "sta_", 2, 2, True), True, 1, 1),
]
SELF_TEST_SECTION3 = [(1, 1, 0), (2, 1, 0), (3, 1, 0)]       # (m, DF exit, GML)
SELF_TEST_TABLE1 = [("fibonacci.fut", 0, 0), ("fib_dl.fut", 1, 1), ("pipeline.fut", 0, 0),
                    ("counterex.fut", 1, 0), ("webserver.fut", 0, 0), ("webserver_dl.fut", 1, 1)]
# One dump set per generated family and per poison kind:
# (family, poison, exit, records).
SELF_TEST_INGEST = [("wide", None, 0, 258), ("bushy", None, 0, 195), ("chain", None, 0, 387),
                    ("deep", None, 0, 459), ("long", None, 0, 690),
                    ("deep", "cycle", 1, 463), ("wide", "ghost", 1, 238)]
# The TRACE_FORMAT worked example: a three-shard deadlocked execution.
SELF_TEST_DUMP = [
    ['{"trace_version":1,"kind":"meta","shard":0,"shards":3,"root":"main"}',
     '{"kind":"spawn","seq":0,"thread":"main","vertex":"a"}',
     '{"kind":"spawn","seq":1,"thread":"main","vertex":"b"}',
     '{"kind":"touch","seq":2,"thread":"main","vertex":"a"}',
     '{"kind":"block","seq":3,"thread":"main","vertex":"a"}'],
    ['{"trace_version":1,"kind":"meta","shard":1,"shards":3,"root":"main"}',
     '{"kind":"touch","seq":4,"thread":"a","vertex":"b"}',
     '{"kind":"block","seq":5,"thread":"a","vertex":"b"}'],
    ['{"trace_version":1,"kind":"meta","shard":2,"shards":3,"root":"main"}',
     '{"kind":"touch","seq":6,"thread":"b","vertex":"a"}',
     '{"kind":"block","seq":7,"thread":"b","vertex":"a"}'],
]


def self_test(driver, wdir):
    """Returns a list of problems (empty when every pinned answer holds)."""
    problems = []
    rng = random.Random("self-test")
    rows = []
    for i, (name, maker, baseline, want_exit, want_gml) in enumerate(SELF_TEST):
        src, code, gml = maker(rng)
        if (code, int(gml)) != (want_exit, want_gml):
            problems.append(f"generator answer for {name} is {code}/{int(gml)}, pinned {want_exit}/{want_gml}")
        ext = ".mml" if name.startswith("mml") else ".fut"
        path = os.path.join(wdir, f"t{i:02d}{ext}")
        with open(path, "w") as f:
            f.write(src)
        rows.append(f"o {path} {int(baseline)} {want_exit} {want_gml}")
        rows.append(f"o {path} 0 {want_exit} -")
    for m, want_exit, want_gml in SELF_TEST_SECTION3:
        path = os.path.join(wdir, f"s3_{m}.gt")
        with open(path, "w") as f:
            f.write(gen.gt_section3(m))
        rows.append(f"o {path} 1 {want_exit} {want_gml}")
    for name, want_exit, want_gml in SELF_TEST_TABLE1:
        path = os.path.join(wdir, name)
        with open(path, "w") as f:
            f.write(gen.read_pinned(name))
        rows.append(f"o {path} 1 {want_exit} {want_gml}")
    corpus = os.path.join(wdir, "corpus.txt")
    with open(corpus, "w") as f:
        f.write("\n".join(rows) + "\n")

    worked = os.path.join(wdir, "worked")
    for k, lines in enumerate(SELF_TEST_DUMP):
        with open(f"{worked}.{k}.json", "w") as f:
            f.write("\n".join(lines) + "\n")
    clean = os.path.join(wdir, "clean")
    actions = [[("spawn", 1), ("touch", 1)], []]
    clean_records = gen.write_dump_set(clean, "c", actions, 2)
    if clean_records != 3:
        problems.append(f"clean dump set has {clean_records} records, pinned 3")
    rows = [f"o {worked}.*.json 1 8", f"o {clean}.*.json 0 3"]
    for family, poison, want_exit, want_records in SELF_TEST_INGEST:
        name = f"{family}-{poison or 'clean'}"
        os.makedirs(os.path.join(wdir, name))
        base = os.path.join(wdir, name, "dump")
        records = gen.dump_set(random.Random(f"self-test:{name}"), base, family, 0, poison)
        if records != want_records:
            problems.append(f"generated {name} dump set has {records} records, pinned {want_records}")
        rows.append(f"o {base}.*.json {want_exit} {want_records}")
    ingest = os.path.join(wdir, "ingest.txt")
    with open(ingest, "w") as f:
        f.write("\n".join(rows) + "\n")

    for workload, manifest in (("corpus", corpus), ("ingest", ingest)):
        for traced in (False, True):
            out = os.path.join(wdir, f"{workload}-{int(traced)}.json")
            spans = os.path.join(wdir, f"{workload}.trace.json") if traced else None
            try:
                result = run_pass(driver, workload, manifest, out, spans)
            except (RuntimeError, subprocess.TimeoutExpired) as e:
                problems.append(f"{workload}: {e}")
                continue
            problems.extend(f"{workload}: {f}" for f in result["failures"])
    return problems


# ---------------------------------------------------------------------------
# Aggregation.

def per_layer_values(workload, names, untraced, traced):
    """Per-layer metric values from the traced passes (medians of times,
    exact counts), plus tracing overhead and layer coverage."""
    layers = {}
    for p in traced:
        for span, t in p["layers"].items():
            layers.setdefault(span, []).append(t)
    counts = traced[0]["counts"]
    extra = {}
    for p in traced:
        for k, v in p["extra"].items():
            extra.setdefault(k, []).append(v)
    untraced_op_ms = statistics.median(p["op_ms_total"] for p in untraced)
    traced_op_ms = statistics.median(p["traced_op_ms"] for p in traced)
    span_ms = {s: statistics.median(t["self_ms"] for t in ts) for s, ts in layers.items()}
    layer_ms = sum(ms for s, ms in span_ms.items() if s not in ("op", "service.setup", "service.stats"))
    values = {}
    for name in names:
        module = name.split(".")[0]
        if name == "par.glue.ms":
            # Untraced corpus op time that no layer span accounts for: file
            # reads, the engine and report glue. par is on the corpus road
            # only.
            v = untraced_op_ms - layer_ms if workload == "corpus" else 0.0
        elif name == "trace.overhead_frac":
            v = (traced_op_ms - untraced_op_ms) / untraced_op_ms if untraced_op_ms else 0.0
        elif name == "trace.layer_share":
            v = layer_ms / traced_op_ms if traced_op_ms else 0.0
        elif name.endswith(".ms"):
            v = span_ms.get(name[:-3], 0.0)
        elif name.endswith(".calls") or name.endswith(".failures"):
            key = "calls" if name.endswith(".calls") else "failures"
            v = sum(t[0][key] for s, t in layers.items() if s.startswith(module + "."))
        elif name in extra:
            v = statistics.median(extra[name])
        else:
            v = counts.get(name, 0.0)
        values[name] = v
    return values, span_ms


def layer_table(span_ms, traced):
    calls = {s: t["calls"] for s, t in traced[0]["layers"].items()}
    fails = {s: t["failures"] for s, t in traced[0]["layers"].items()}
    lines = [f"{'span':<22}{'self ms':>12}{'calls':>10}{'failures':>10}"]
    for s in sorted(span_ms):
        lines.append(f"{s:<22}{span_ms[s]:>12.3f}{calls[s]:>10}{fails[s]:>10}")
    for k, v in sorted(traced[0]["counts"].items()):
        lines.append(f"{k:<40}{v:>14.6g}")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    driver = ensure_built(bdir)
    work = os.path.join(bdir, "work")
    os.makedirs(work, exist_ok=True)
    mount = mount_type(work)
    if mount != "tmpfs":
        log(f"warning: inputs are on {mount}, not tmpfs; file writes may add noise")

    problems = self_test(driver, fresh_dir(os.path.join(work, "self-test")))
    wdir = fresh_dir(os.path.join(work, f"{args.workload}-{args.seed}"))
    manifest = generate(args.workload, args.seed, wdir)

    untraced, traced = [], []
    measured = 0.0
    errors = list(f"self-test: {p}" for p in problems)
    spans_path = os.path.join(wdir, "spans.json")
    while True:
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        enough = (len(untraced) >= MIN_PASSES if args.trace == 0 else
                  len(traced) >= MIN_TRACED_PASSES and len(untraced) >= MIN_TRACED_PASSES)
        if enough and measured >= args.seconds and not want_traced:
            break
        out = os.path.join(wdir, f"pass{len(untraced) + len(traced)}.json")
        try:
            result = run_pass(driver, args.workload, manifest, out, spans_path if want_traced else None)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            errors.append(str(e))
            break
        measured += result["wall_s"]
        (traced if want_traced else untraced).append(result)

    passes = untraced + traced
    attempted = sum(p["ops"] + p["warmup_ops"] for p in passes) or 1
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        errors.extend(p["failures"][:3])
    # Determinism: one verdict digest for every pass; identical counts and
    # rendered output among passes of the same kind.
    if len({p["verdict_digest"] for p in passes}) > 1:
        errors.append("verdict digests differ between passes")
    for group, label in ((untraced, "untraced"), (traced, "traced")):
        if len({json.dumps(p["counts"], sort_keys=True) for p in group}) > 1:
            errors.append(f"{label} passes report different counts")
        if len({p["text_digest"] for p in group}) > 1:
            errors.append(f"{label} passes render different output")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": os.cpu_count(), "kernel": os.uname().release,
              "input_mount": mount, "build_type": BUILD_TYPE,
              "env": passes[0]["env"] if passes else {}, "passes": passes}
    if untraced and args.trace == 0:
        # Medians over the passes: a pass that lands in a slow spell of
        # the host moves the median far less than it moves a pooled mean
        # or a pooled tail.
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(p[m["name"]] for p in untraced),
                                  "unit": m["unit"]}
    elif traced and args.trace == 1:
        names = [m["name"] for m in spec["per_layer"]]
        values, span_ms = per_layer_values(args.workload, names, untraced, traced)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if values.get("trace.layer_share", 1.0) < MIN_LAYER_SHARE:
            errors.append(f"layer self times cover only {values['trace.layer_share']:.1%} "
                          f"of traced op time (need {MIN_LAYER_SHARE:.0%})")
        table = layer_table(span_ms, traced)
        log("per-layer self times (median of traced passes) and counts:\n" + table)
        record["layer_table"] = table
        results_trace = os.path.join(bdir, "results", f"{args.workload}-seed{args.seed}.trace.json")
        os.makedirs(os.path.dirname(results_trace), exist_ok=True)
        shutil.copyfile(spans_path, results_trace)
        record["chrome_trace"] = results_trace
    record["errors"] = errors
    results = os.path.join(bdir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(results), exist_ok=True)
    with open(results, "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(wdir, ignore_errors=True)
    for e in errors[:10]:
        log("error: " + e)
    log(f"{len(untraced)} untraced + {len(traced)} traced passes, {measured:.1f} s measured; "
        f"env {record['env']}; mount {mount}; record {results}")
    correct = not errors and failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
