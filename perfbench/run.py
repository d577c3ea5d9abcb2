#!/usr/bin/env python3
"""End-to-end benchmark of the cousin-pair miner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --fresh-cache ...
    python3 perfbench/run.py --check-fault

Run from the repository root. Builds cousins_cli, cousinsd and the
harness in Release from the checked-out sources (into $CARGO_TARGET_DIR,
default .bench_build), generates the workload's inputs from the seed,
drives the real binaries, checks every output against computations made
apart from the program, and prints one JSON object as the last line of
stdout. See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = ".bench_cache"  # inputs and expected outputs, per workload and seed
WORK = ".bench_work"    # checkpoints, WALs, sockets, traces
OUT = ".bench_out"      # one full record per run

# Input make-up of each workload. Every workload runs every operation:
# the four `frequent --csv` legs over `forest`, a daemon session over
# the forest's first session_batches * batch_size trees, and the phylo
# applications over `studies`.
WORKLOADS = {
    "fig6-cube": {
        # Table 3 synthetic trees: 200 nodes, fanout 5, 200 labels, all
        # labeled. 2,000 trees make every one of the 80,400 keys frequent.
        "forest": {"kind": "cube", "trees": 2000},
        "free_trees": 500,
        "scalar_single_thread": False,
        "exact_rows": 200 * 201 // 2 * 4,
        "studies": {"studies": 8, "trees": 50, "taxa": 48, "pool": 200},
        "session": {"batches": 24, "batch_size": 12},
    },
    "treebase-sparse": {
        # TreeBASE-shaped Yule trees: 50-200 nodes, up to 9 children,
        # 18,870 taxa, unlabeled internal nodes; many small studies.
        "forest": {"kind": "yule", "trees": 3000},
        "free_trees": 1000,
        # The vector-tier fold loses tallies once its tables grow
        # mid-tree (CHANGES.md, FOUND), so the one-thread legs run the
        # scalar tier here until that is mended.
        "scalar_single_thread": True,
        "exact_rows": None,
        "studies": {"studies": 192, "trees": 6, "taxa": 24, "pool": 18870},
        # Restart time steps with the size classes the daemon's tables
        # land in; at 24 x 16 trees two seeds in ten landed a class
        # lower and the spread of recover_s across seeds reached 0.28.
        "session": {"batches": 24, "batch_size": 20},
    },
    "consensus-kernel": {
        # Same-taxa study groups (§5.2-5.3): few large studies over a
        # 96-taxon pool for the phylo applications; the batch legs and
        # the session mine a larger corpus of the same kind, in batches
        # big enough that an INGEST is not a sub-millisecond call.
        "forest": {"kind": "studies", "studies": 48, "trees": 200, "taxa": 64,
                   "pool": 96},
        "free_trees": 2400,
        "scalar_single_thread": False,
        "exact_rows": None,
        "studies": {"studies": 8, "trees": 100, "taxa": 48, "pool": 96},
        "session": {"batches": 24, "batch_size": 64},
    },
}

MIN_ROUNDS = 3
SETUPS = 3  # set-up is repeated and its median reported
PHYLO_SECONDS = 1.0  # phylo passes per round last at least this long
HEADER = "label1,label2,distance,support,occurrences"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as out:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise SystemExit("build failed: " + " ".join(cmd))
    return {name: os.path.join(build_dir, name)
            for name in ("cousins_cli", "cousinsd", "perfbench_harness")}


# ------------------------------------------------------- inputs, oracle


def harness_json(bins, *args):
    out = subprocess.run([bins["perfbench_harness"], *args], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def head_lines(src, dst, n):
    with open(src) as f, open(dst, "w") as out:
        for i, line in enumerate(f):
            if i >= n:
                break
            out.write(line)


def prepare_inputs(bins, workload, seed, fresh):
    """Generates inputs and expected outputs once per seed (cached). The
    cache key includes the workload's definition, so a changed
    definition never reads inputs made for the old one."""
    spec = WORKLOADS[workload]
    key = zlib.crc32(json.dumps(spec, sort_keys=True).encode())
    d = os.path.join(CACHE, f"{workload}-{seed}-{key:08x}")
    done = os.path.join(d, "READY")
    if fresh:
        shutil.rmtree(d, ignore_errors=True)
    if os.path.exists(done):
        return d
    os.makedirs(d, exist_ok=True)
    s = spec["studies"]
    harness_json(bins, "gen", "--kind=studies", f"--seed={seed}",
                 f"--studies={s['studies']}", f"--trees={s['trees']}",
                 f"--taxa={s['taxa']}", f"--pool={s['pool']}", "--moves=2",
                 f"--out={d}/studies.nwk")
    harness_json(bins, "gen", f"--seed={seed}", f"--out={d}/forest.nwk",
                 "--moves=2", *(f"--{k}={v}" for k, v in spec["forest"].items()))
    head_lines(f"{d}/forest.nwk", f"{d}/free.nwk", spec["free_trees"])
    head_lines(f"{d}/forest.nwk", f"{d}/warm.nwk",
               count_trees(f"{d}/forest.nwk") // 10)
    harness_json(bins, "oracle", f"--forest={d}/forest.nwk", "--mode=cousin",
                 f"--out={d}/expected.csv")
    harness_json(bins, "oracle", f"--forest={d}/free.nwk", "--mode=free",
                 f"--out={d}/expected_free.csv")
    open(done, "w").close()
    return d


def count_trees(path):
    with open(path) as f:
        return sum(1 for line in f if line.strip())


# --------------------------------------------------------------- checks


def parse_rows(text, ordered=True):
    """CSV rows keyed by (unordered label names, distance); `ordered`
    also requires descending support."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != HEADER:
        return None, "missing CSV header"
    rows = {}
    previous = None
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 5:
            return None, f"malformed row {line!r}"
        a, b = sorted(f[:2])
        key = (a, b, f[2])
        if key in rows:
            return None, f"row listed twice: {line!r}"
        support = int(f[3])
        if ordered and previous is not None and support > previous:
            return None, f"rows not in descending support at {line!r}"
        previous = support
        rows[key] = (support, int(f[4]))
    return rows, ""


def check_frequent(text, expected, exact_rows):
    rows, why = parse_rows(text)
    if rows is None:
        return why
    if exact_rows is not None and len(rows) != exact_rows:
        return f"{len(rows)} rows, the complete cube has {exact_rows}"
    if rows != expected:
        missing = sorted(set(expected) - set(rows))[:3]
        extra = sorted(set(rows) - set(expected))[:3]
        wrong = sorted(k for k in set(rows) & set(expected)
                       if rows[k] != expected[k])[:3]
        return (f"{len(rows)} rows vs {len(expected)} expected; missing "
                f"{missing} extra {extra} wrong {wrong}")
    return ""


def load_expected(path):
    with open(path) as f:
        rows, why = parse_rows(f.read(), ordered=False)
    if rows is None:
        raise SystemExit(f"{path}: {why}")
    return rows


# ------------------------------------------------------------- programs


def run_program(cmd):
    """Runs a program to exit with its stdout fully read; returns (exit
    code, stdout, wall seconds, peak RSS KiB of it and its reaped
    children, from the rusage of the waited process)."""
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "program.err"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss


def frequent_cmd(bins, path, leg, spec):
    cmd = [bins["cousins_cli"], "frequent", path, "--csv", "--maxdist=1.5",
           "--minoccur=1", "--minsup=2"]
    if leg == "seq":
        cmd.append("--threads=1")
    elif leg == "free":
        cmd += ["--miner=free", "--threads=1"]
    elif leg == "threads":
        cmd.append("--threads=4")
    elif leg == "procs":
        ckpt = os.path.join(WORK, "procs")
        shutil.rmtree(ckpt, ignore_errors=True)
        os.makedirs(ckpt)
        cmd += ["--workers=4", f"--checkpoint={ckpt}/ckpt"]
    if leg in ("seq", "free") and spec["scalar_single_thread"]:
        cmd.append("--simd=scalar")
    return cmd


class Resident:
    """A harness subcommand kept running across rounds: each "run" line
    on its stdin makes it do one round of work and reply with one JSON
    line. Inputs and their oracle are built once per process."""

    def __init__(self, bins, *args):
        self.proc = subprocess.Popen([bins["perfbench_harness"], *args],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self):
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"harness {self.proc.args[1]} ended early")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def frame(body):
    data = body.encode()
    return struct.pack("<II", len(data), zlib.crc32(data)) + data


def daemon_health(bins, sock_dir):
    """Starts cousinsd over a fresh WAL, waits for its first HEALTH
    reply and stops it. Returns seconds from spawn to reply."""
    shutil.rmtree(sock_dir, ignore_errors=True)
    os.makedirs(sock_dir)
    sock_path = os.path.join(sock_dir, "d.sock")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [bins["cousinsd"], "serve", f"--wal={sock_dir}/wal",
         f"--socket={sock_path}", "--maxdist=1.5", "--minsup=2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while True:
            if proc.poll() is not None or time.perf_counter() - start > 60:
                raise SystemExit("cousinsd did not start")
            try:
                with socket.socket(socket.AF_UNIX) as s:
                    s.connect(sock_path)
                    s.sendall(frame("HEALTH"))
                    head = s.recv(8, socket.MSG_WAITALL)
                    length, _ = struct.unpack("<II", head)
                    body = s.recv(length, socket.MSG_WAITALL)
                    if not body.startswith(b"OK"):
                        raise SystemExit("HEALTH refused")
                    return time.perf_counter() - start
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.0005)
    finally:
        proc.terminate()
        proc.wait()


# ------------------------------------------------------------ the run


def quantile(values, q):
    """Nearest-rank quantile, as the harness computes it."""
    v = sorted(values)
    return v[min(len(v) - 1, int(q * (len(v) - 1) + 0.5))]


def tail_quantile(values, q):
    """`q` if at least ten samples lie beyond it, else None."""
    beyond = len(values) - 1 - int(q * (len(values) - 1) + 0.5)
    return quantile(values, q) if beyond >= 10 else None


def provenance(bins, phase, record):
    env = harness_json(bins, "env")
    cpu = {}
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "flags") and key not in cpu:
                cpu[key] = value.strip()
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as lv, \
                 open(f"{base}/{index}/type") as ty, \
                 open(f"{base}/{index}/size") as sz:
                caches[f"L{lv.read().strip()}{ty.read().strip()[0].lower()}"] = \
                    sz.read().strip()
        except OSError:
            pass
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    if phase == "start":
        # Git may not look above the checkout for a repository.
        root = os.path.dirname(HERE)
        env_git = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env_git,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True).stdout.strip() if shutil.which("git") else ""
        record.update({
            "cpu_model": cpu.get("model name", ""),
            "online_cpus": len(os.sched_getaffinity(0)),
            "caches": caches,
            "avx2": " avx2 " in f" {cpu.get('flags', '')} ",
            "simd_tier_dispatched": env["simd_tier"],
            "compiler": env["compiler"],
            "build_type": env["build_type"],
            "git_sha": sha or "unknown (not a git checkout)",
        })
    record[f"loadavg_{phase}"] = load


def setup_once(bins, d, spec):
    """Program start, daemon start and warm-up runs on a tenth of the
    forest."""
    start = time.perf_counter()
    for leg in ("seq", "threads", "procs"):
        code, _, _, _ = run_program(frequent_cmd(bins, f"{d}/warm.nwk", leg, spec))
        if code != 0:
            raise SystemExit(f"warm-up {leg} exited {code}")
    daemon_health(bins, os.path.join(WORK, "setup"))
    return time.perf_counter() - start


def timed_run(bins, workload, seed, seconds, d):
    spec = WORKLOADS[workload]
    expected = load_expected(f"{d}/expected.csv")
    expected_free = load_expected(f"{d}/expected_free.csv")
    trees = count_trees(f"{d}/forest.nwk")
    free_trees = count_trees(f"{d}/free.nwk")
    setups = [setup_once(bins, d, spec) for _ in range(SETUPS)]

    samples = {k: [] for k in ("seq", "free", "threads", "procs", "rss_kib",
                               "ingest_trees_per_s", "recover_s", "consensus",
                               "distance", "kernel")}
    ingest, support, listing = [], [], []
    attempted = failed = 0
    errors = []
    s = spec["session"]
    session = Resident(bins, "session", f"--daemon={bins['cousinsd']}",
                       f"--forest={d}/forest.nwk", f"--batches={s['batches']}",
                       f"--batch-size={s['batch_size']}", f"--seed={seed}",
                       f"--work={WORK}/s")
    phylo = Resident(bins, "phylo", f"--studies={d}/studies.nwk",
                     f"--seed={seed}", f"--min-seconds={PHYLO_SECONDS}")
    # Rounds of every operation, so that a slow spell of the machine
    # lands in one round's samples rather than in one metric's.
    rounds = 0
    start = time.perf_counter()
    with session, phylo:
        while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rounds += 1
            rss = 0
            for leg in ("seq", "threads", "procs", "free"):
                path = f"{d}/free.nwk" if leg == "free" else f"{d}/forest.nwk"
                attempted += 1
                code, out, wall, rss_kib = run_program(
                    frequent_cmd(bins, path, leg, spec))
                rss = max(rss, rss_kib)
                if code != 0:
                    failed += 1
                    errors.append(f"frequent {leg} exited {code}")
                    continue
                why = check_frequent(out, expected_free if leg == "free" else expected,
                                     None if leg == "free" else spec["exact_rows"])
                if why:
                    errors.append(f"frequent {leg}: {why}")
                samples[leg].append((free_trees if leg == "free" else trees) / wall)

            sess = session.run()
            attempted += int(sess["attempted"])
            failed += int(sess["failed"])
            if not sess["correct"]:
                errors.append("session: " + sess["errors"])
            ingest += sess["ingest_ms"]
            support += sess["support_ms"]
            listing += sess["listing_ms"]
            samples["ingest_trees_per_s"].append(sess["ingest_trees_per_s"])
            samples["recover_s"] += sess["recover_s"]
            samples["rss_kib"].append(max(rss, int(sess["peak_rss_kb"])))

            ph = phylo.run()
            attempted += int(ph["attempted"])
            failed += int(ph["failed"])
            if not ph["correct"]:
                errors.append("phylo: " + ph["errors"])
            samples["consensus"] += ph["consensus_trees_per_s"]
            samples["distance"] += ph["distance_pairs_per_s"]
            samples["kernel"] += ph["kernel_s"]

    def med(values):  # a leg that failed every time has no samples
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup_s": (med(setups), "s"),
        "mine_seq_trees_per_s": (med(samples["seq"]), "trees/s"),
        "mine_free_trees_per_s": (med(samples["free"]), "trees/s"),
        "mine_threads_trees_per_s": (med(samples["threads"]), "trees/s"),
        "mine_procs_trees_per_s": (med(samples["procs"]), "trees/s"),
        "peak_rss_mib": (med(samples["rss_kib"]) / 1024.0, "MiB"),
        "ingest_trees_per_s": (med(samples["ingest_trees_per_s"]), "trees/s"),
        "ingest_p50_ms": (quantile(ingest, 0.5), "ms"),
        "support_p50_ms": (quantile(support, 0.5), "ms"),
        "recover_s": (med(samples["recover_s"]), "s"),
        "consensus_trees_per_s": (med(samples["consensus"]), "trees/s"),
        "distance_pairs_per_s": (med(samples["distance"]), "pairs/s"),
        "kernel_s": (med(samples["kernel"]), "s"),
    }
    # Tails and the listing latency are recorded with the run but are
    # not end-to-end metrics: across runs they spread wider than any
    # bound could hold (README.md, "Dropped as unsteady").
    detail = {"rounds": rounds, "setup_samples": setups, "samples": samples,
              "ingest_p90_ms": tail_quantile(ingest, 0.9),
              "support_p99_ms": tail_quantile(support, 0.99),
              "listing_p50_ms": quantile(listing, 0.5),
              "sample_counts": {"ingest": len(ingest), "support": len(support),
                                "listing": len(listing)}}
    return metrics, attempted, failed, errors, detail


def traced_run(bins, workload, seed, d):
    spec = WORKLOADS[workload]
    s = spec["session"]
    work = os.path.join(WORK, "trace")
    tr = harness_json(bins, "trace", f"--forest={d}/forest.nwk",
                      f"--free-forest={d}/free.nwk",
                      f"--studies={d}/studies.nwk", f"--work={work}",
                      f"--batches={s['batches']}", f"--batch-size={s['batch_size']}",
                      f"--seed={seed}",
                      f"--simd={'scalar' if spec['scalar_single_thread'] else 'auto'}")
    errors = [e for e in tr.pop("errors").split("; ") if e]
    for name, exp in (("frequent.csv", "expected.csv"),
                      ("frequent_free.csv", "expected_free.csv")):
        with open(os.path.join(work, name)) as f:
            why = check_frequent(f.read(), load_expected(f"{d}/{exp}"), None)
        if why:
            errors.append(f"traced {name}: {why}")
    # Coverage: the share of each batch operation's process wall time
    # that the traced in-process layer calls account for.
    walls = {}
    attempted = failed = 0
    for leg in ("seq", "threads", "procs", "free"):
        path = f"{d}/free.nwk" if leg == "free" else f"{d}/forest.nwk"
        samples = []
        for _ in range(3):
            attempted += 1
            code, _, wall, _ = run_program(frequent_cmd(bins, path, leg, spec))
            if code != 0:
                failed += 1
            samples.append(wall)
        walls[leg] = statistics.median(samples)
    seq = sum(tr[f"section.seq.{k}"] for k in ("parse", "add_tree", "finalize", "render"))
    free = sum(tr[f"section.free.{k}"] for k in ("parse", "add_tree", "finalize", "render"))
    render = tr["section.seq.render"]
    coverage = {
        "coverage.mine_seq_pct": seq / walls["seq"] * 100,
        "coverage.mine_free_pct": free / walls["free"] * 100,
        "coverage.mine_threads_pct":
            (tr["section.seq.parse"] + tr["section.threads.mine"] + render)
            / walls["threads"] * 100,
        "coverage.mine_procs_pct":
            (tr["section.procs.mine"] + render) / walls["procs"] * 100,
    }
    metrics = {k: v for k, v in tr.items() if not k.startswith("section.")}
    metrics.update(coverage)
    os.makedirs(OUT, exist_ok=True)
    shutil.copyfile(os.path.join(work, "trace.json"),
                    os.path.join(OUT, f"{workload}-{seed}-spans.json"))
    return metrics, attempted, failed, errors, {"walls": walls}


METHODS = ("majority", "strict", "semi", "adams", "nelson", "greedy")
LAYERS = ("bench", "core", "freetree", "phylo", "proc", "svc", "tree")
# Every per-layer metric of the traced run, with its unit.
PER_LAYER = {
    "tree.parse_s": "s", "tree.parse_mb_per_s": "MB/s",
    "core.add_tree_us": "us", "core.add_tree_free_us": "us",
    "core.mine_tree_us": "us", "core.items_per_tree": "count",
    "core.tally_entries": "count", "core.tally_grows": "count",
    "core.merge_s": "s", "core.finalize_s": "s",
    "core.render_frequent_s": "s", "core.all_tallies_s": "s",
    "core.render_all_s": "s", "core.parallel_t1_s": "s",
    "core.parallel_t2_s": "s", "core.parallel_t4_s": "s",
    "core.speedup_t4": "ratio", "core.efficiency_t4": "ratio",
    "freetree.mine_tree_us": "us",
    "proc.plan_s": "s", "proc.run_s": "s", "proc.shards": "count",
    "proc.leases_reissued": "count", "proc.workers_died": "count",
    "svc.ingest_handle_ms": "ms", "svc.support_handle_ms": "ms",
    "svc.listing_handle_us": "us", "svc.frame_roundtrip_us": "us",
    "svc.start_s": "s", "svc.replayed_records": "count",
    "svc.wal_bytes_per_payload_byte": "ratio",
    **{f"phylo.consensus_ms.{m}": "ms" for m in METHODS},
    **{f"phylo.similarity_ms.{m}": "ms" for m in METHODS},
    "phylo.profile_us_per_tree": "us", "phylo.profile_distance_us": "us",
    "phylo.kernel_s": "s",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_pct": "%", "trace.spans": "count",
    "coverage.mine_seq_pct": "%", "coverage.mine_free_pct": "%",
    "coverage.mine_threads_pct": "%", "coverage.mine_procs_pct": "%",
}


def check_fault(bins):
    """The 1-thread `frequent` on a fixed treebase-shaped forest, through
    the same check: incorrect on the vector tier, correct on scalar."""
    d = os.path.join(WORK, "check-fault")
    os.makedirs(d, exist_ok=True)
    harness_json(bins, "gen", "--kind=yule", "--trees=3000", "--seed=3",
                 f"--out={d}/forest.nwk")
    harness_json(bins, "oracle", f"--forest={d}/forest.nwk", "--mode=cousin",
                 f"--out={d}/expected.csv")
    expected = load_expected(f"{d}/expected.csv")
    verdicts = {}
    for simd in ("auto", "scalar"):
        code, out, _, _ = run_program(
            [bins["cousins_cli"], "frequent", f"{d}/forest.nwk", "--csv",
             "--maxdist=1.5", "--minsup=2", f"--simd={simd}"])
        why = check_frequent(out, expected, None) if code == 0 else f"exit {code}"
        verdicts[simd] = why or "correct"
        print(f"--simd={simd}: {verdicts[simd]}")
    env = harness_json(bins, "env")
    print(json.dumps({"simd_tier": env["simd_tier"], "verdicts": verdicts}))
    shutil.rmtree(WORK, ignore_errors=True)
    shows = verdicts["auto"] != "correct" and verdicts["scalar"] == "correct"
    return 0 if shows or env["simd_tier"] != "avx2" else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fresh-cache", action="store_true",
                        help="make the inputs and expected outputs anew")
    parser.add_argument("--check-fault", action="store_true",
                        help="show that the output check catches the known "
                             "vector-tier fault")
    args = parser.parse_args()
    if not args.check_fault and not args.workload:
        parser.error("--workload is required")

    bins = build()
    if args.check_fault:
        return check_fault(bins)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    provenance(bins, "start", record)
    d = prepare_inputs(bins, args.workload, args.seed, args.fresh_cache)
    if args.trace:
        metrics, attempted, failed, errors, detail = traced_run(
            bins, args.workload, args.seed, d)
        missing = sorted(set(PER_LAYER) - set(metrics))
        if missing:
            errors.append(f"traced run lacks {missing}")
        metrics = {k: (metrics.get(k, 0.0), u) for k, u in PER_LAYER.items()}
    else:
        metrics, attempted, failed, errors, detail = timed_run(
            bins, args.workload, args.seed, args.seconds, d)
    provenance(bins, "end", record)
    shutil.rmtree(WORK, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update({"errors": errors, "detail": detail, "result": result})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-{args.seed}-t{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    for e in errors:
        log("check:", e)
    print("# provenance " + json.dumps({k: v for k, v in record.items()
                                        if k not in ("detail", "result")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
