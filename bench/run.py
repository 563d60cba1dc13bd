"""fuzzycover benchmark: closed-loop CLI workloads with output-hash gating.

Run from the root of a fuzzycover checkout:

    python3 bench/run.py --workload coarse-single --seed 0 --seconds 30 --trace 0

One client sends one command at a time through `fuzzycover.cli.main`, the
entry point behind `fuzzycover ...` and `python -m fuzzycover`.  Each command
runs in a child forked from a process that has already imported the package,
so no state carries over between commands while interpreter start-up and the
import (counted in `setup_s`) stay out of each command's time.  See
bench/README.md for the metrics, the workloads and how to compare commits.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; lines before it give the
workload shape and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
OUT_DIR = ".bench_out"
DEFAULT_SEED = 0
MIN_COMMANDS = 100      # so that ten samples lie beyond the 90th percentile
SETUP_REPEATS = 9
END_TO_END = {
    "cmd_s_p50": "s",
    "cmd_s_p90": "s",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Runs in a fresh interpreter: set-up is start-up, the package import and
# writing the workload's inputs, exactly what precedes a user's first command.
SETUP_SCRIPT = """
import json, sys
cfg = json.loads(sys.argv[1])
sys.path[:0] = [cfg["src"], cfg["bench"]]
if cfg["trace"]:
    import spans
    recorder = spans.Recorder()
    spans.install(recorder)
import fuzzycover.cli
import workloads
workloads.make(cfg["workload"], cfg["seed"], cfg["work_root"], **cfg["params"]).write_inputs()
if cfg["trace"]:
    print(json.dumps(recorder.spans))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (set-up failed, code missing)."""


@dataclass
class Outcome:
    exit: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int
    spans: list = field(default_factory=list)


def _read_all(fds: list[int]) -> dict[int, bytes]:
    """Drain pipes until every writer has closed them."""
    chunks = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        open_fds = len(fds)
        while open_fds:
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    open_fds -= 1
    return {fd: b"".join(parts) for fd, parts in chunks.items()}


def _child(argv, out_w, err_w, meta_w, traced: bool) -> None:
    """Body of a forked command process; never returns.

    The command's time runs from calling `cli.main` to flushing its output;
    it is sent back with the spans on the meta pipe.
    """
    code = 1
    try:
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        # block-buffered UTF-8 like `fuzzycover ... > file`, whatever the parent's streams are
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", buffering=1, encoding="utf-8", closefd=False)
        from fuzzycover import cli

        main, recorder = cli.main, None
        if traced:
            import spans

            recorder = spans.Recorder()
            spans.install(recorder)
            main = recorder.wrap(spans.ROOT_LAYER, "main", cli.main)
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        sys.stdout.flush()
        sys.stderr.flush()
        seconds = time.perf_counter() - start
        with open(meta_w, "w", encoding="utf-8", closefd=False) as fh:
            json.dump({"seconds": seconds, "spans": recorder.spans if traced else []}, fh)
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
        code = 1
    finally:
        os._exit(code)


def run_command(argv, traced: bool = False) -> Outcome:
    """Run one CLI command in a forked child and collect what it wrote."""
    pipes = [os.pipe() for _ in range(3)]
    sys.stdout.flush()
    sys.stderr.flush()
    # the child's collector then sees only the child's own objects, as in a
    # fresh process, and never copies the parent's heap page by page
    gc.freeze()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        for r, _ in pipes:
            os.close(r)
        _child(argv, *(w for _, w in pipes), traced)
    for _, w in pipes:
        os.close(w)
    try:
        data = _read_all([r for r, _ in pipes])
    finally:
        for r, _ in pipes:
            os.close(r)
        _, status, usage = os.wait4(pid, 0)
    out, err, meta = (data[r] for r, _ in pipes)
    # a child killed before reporting fails its gate on the exit code; time it from fork
    meta = json.loads(meta) if meta else {"seconds": time.perf_counter() - start, "spans": []}
    return Outcome(os.waitstatus_to_exitcode(status), out, err, meta["seconds"],
                   usage.ru_maxrss, meta["spans"])


def set_up(workload, root: str, trace: bool) -> tuple[float, list]:
    """Time set-up in fresh interpreters; return (median seconds, spans)."""
    cfg = {"src": os.path.join(root, "src"), "bench": BENCH_DIR, "workload": workload.name,
           "seed": workload.seed, "params": workload.params, "work_root": workload.work_root,
           "trace": trace}
    times, spans = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, json.dumps(cfg)],
                              cwd=root, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up of {workload.name} failed:\n{proc.stderr}")
        if trace:
            spans = json.loads(proc.stdout.splitlines()[-1])
    return statistics.median(times), spans


def load_goldens(workload) -> dict | None:
    """Golden {command: {sha256, exit}} at the default seed, else None."""
    if workload.seed != DEFAULT_SEED:
        return None
    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload.name, {})
    except FileNotFoundError:
        return {}


class Gate:
    """Exit code and output-hash check for every executed command.

    At the default seed each command must match its recorded golden.  At
    other seeds the first execution of a command is the reference for its
    repeats, and the oracle cross-check vouches for the first execution.
    The first output of each command goes to a file under `out_dir`, so the
    process that forks the commands holds only digests.
    """

    def __init__(self, goldens: dict | None, out_dir: str):
        self.goldens = goldens
        self.out_dir = out_dir
        # key -> (sha256, exit, bytes, file of the first output)
        self.first: dict[str, tuple[str, int, int, str]] = {}
        self.failures: dict[str, str] = {}  # key -> why its first failure failed

    def passed(self, cmd, outcome: Outcome) -> bool:
        digest = hashlib.sha256(outcome.stdout).hexdigest()
        if cmd.key not in self.first:
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(self.out_dir, f"{len(self.first)}.out")
            with open(path, "wb") as fh:
                fh.write(outcome.stdout)
            self.first[cmd.key] = (digest, outcome.exit, len(outcome.stdout), path)
        if self.goldens is not None:
            want = self.goldens.get(cmd.key, {})
            ok = want.get("sha256") == digest and want.get("exit") == outcome.exit
        else:
            ok = self.first[cmd.key][0] == digest
        ok = ok and outcome.exit == cmd.expect_exit
        if not ok and cmd.key not in self.failures:
            stderr = outcome.stderr.decode("utf-8", "replace").strip()[-300:]
            self.failures[cmd.key] = f"exit {outcome.exit}, sha256 {digest[:12]}: {stderr}"
        return ok

    def output(self, key: str) -> bytes:
        """The first output of a command."""
        with open(self.first[key][3], "rb") as fh:
            return fh.read()

    def digest(self) -> str:
        """One sha256 over every command's exit code and output sha256."""
        lines = sorted(f"{key}\t{code}\t{sha}" for key, (sha, code, _, _) in self.first.items())
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@dataclass
class Loop:
    samples: list[float] = field(default_factory=list)
    attempted: int = 0
    fails: dict = field(default_factory=dict)    # command key -> failed executions
    verdicts: int = 0
    wall: float = 0.0
    maxrss_kb: int = 0
    counts: dict = field(default_factory=dict)   # command key -> executions
    span_log: list = field(default_factory=list)

    def run(self, cmd, gate: Gate, traced: bool = False) -> Outcome:
        """Run one command, gate its output and record it."""
        outcome = run_command(cmd.argv, traced)
        ok = gate.passed(cmd, outcome)
        self.samples.append(outcome.seconds)
        self.attempted += 1
        self.fails[cmd.key] = self.fails.get(cmd.key, 0) + (not ok)
        self.verdicts += cmd.verdicts if ok else 0
        self.maxrss_kb = max(self.maxrss_kb, outcome.maxrss_kb)
        self.counts[cmd.key] = self.counts.get(cmd.key, 0) + 1
        return outcome


def timed_loop(commands, gate: Gate, seconds: float) -> Loop:
    """Whole passes for at least `seconds` and at least MIN_COMMANDS commands.

    Whole passes keep the mix of commands, and so the percentiles, the same
    from run to run.
    """
    loop = Loop()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or loop.attempted < MIN_COMMANDS:
        for cmd in commands:
            loop.run(cmd, gate)
    loop.wall = time.perf_counter() - start
    return loop


def _oracle_mismatches(todo) -> dict[str, str]:
    import verify

    orc = verify.Oracle()
    bad = {}
    for key, spec, stdout in todo:
        try:
            problem = verify.check(orc, spec, stdout)
        except (ValueError, KeyError) as e:
            problem = f"unreadable result: {e!r}"
        if problem is not None:
            bad[key] = problem
    return bad


def cross_check(workload, gate: Gate) -> dict[str, str]:
    """Oracle mismatches of distinct result-producing commands, by command key.

    The brute-force oracle is the slowest step outside the loop, so a forked
    worker takes every other command.
    """
    todo = [(cmd.key, cmd.oracle, gate.output(cmd.key)) for cmd in workload.commands()
            if cmd.oracle is not None and cmd.key in gate.first]
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "w", encoding="utf-8") as fh:
                json.dump(_oracle_mismatches(todo[1::2]), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    try:
        bad = _oracle_mismatches(todo[0::2])
    finally:
        with open(r, encoding="utf-8") as fh:
            text = fh.read()
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("the oracle cross-check worker failed")
    bad.update(json.loads(text))
    return bad


def shape(workload, commands, loop: Loop, bytes_per_pass: int) -> dict:
    """What the workload ran: sizes, distinct neighborhoods, commands, bytes."""
    from fuzzycover.neighborhood import build_table
    from fuzzycover.sysio import load

    systems = []
    for path, _ in workload.systems():
        sf = load(path)
        coverings = []
        for c in sf.system.coverings:
            table = build_table(sf.system.space(c.name))
            coverings.append({"name": c.name, "members": len(c.members),
                              "gamma": c.gamma / 10**6,
                              "d": len({row.memberships for row in table.rows})})
        systems.append({"path": path, "n": sf.universe.size, "m": sf.system.size,
                        "coverings": coverings})
    return {"workload": workload.name, "seed": workload.seed, "systems": systems,
            "commands_per_pass": len(commands), "commands_per_run": loop.attempted,
            "output_bytes_per_pass": bytes_per_pass}


def traced_loop(commands, gate: Gate, seconds: float, totals) -> tuple[Loop, int, float]:
    """Pairs of one untraced and one traced pass, while another pair fits.

    Returns the loop, the number of traced passes and the trace overhead
    (traced wall over untraced wall, minus one).
    """
    loop = Loop()
    plain_wall = traced_wall = last = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        for cmd in commands:
            loop.run(cmd, gate)
        t1 = time.perf_counter()
        for cmd in commands:
            spans = loop.run(cmd, gate, traced=True).spans
            totals.add(spans, produces_result=cmd.oracle is not None)
            loop.span_log.append({"command": cmd.key, "spans": spans})
        t2 = time.perf_counter()
        plain_wall += t1 - t0
        traced_wall += t2 - t1
        last = t2 - t0
        passes += 1
    loop.wall = plain_wall + traced_wall
    return loop, passes, traced_wall / plain_wall - 1


def measure(workload, seconds: float, trace: bool, root: str = ".") -> dict:
    """Set up, loop, verify; return the result line, the report and the gate."""
    import fuzzycover.cli  # noqa: F401  imported once here, not in each command
    import spans as spanlib

    if trace:
        spanlib.resolve()  # a missing layer function fails the run up front
    outputs = workload.dir + "-outputs"
    for leftover in (workload.dir, outputs):
        shutil.rmtree(leftover, ignore_errors=True)
    try:
        setup_s, setup_spans = set_up(workload, root, trace)
        commands = workload.commands()
        gate = Gate(load_goldens(workload), outputs)
        if trace:
            totals = spanlib.LayerTotals()
            loop, passes, overhead = traced_loop(commands, gate, seconds, totals)
        else:
            loop = timed_loop(commands, gate, seconds)
        bytes_per_pass = sum(size for _, _, size, _ in gate.first.values())
        result_cmds = sum(1 for c in commands if c.oracle is not None)
        mismatches = cross_check(workload, gate)
        # a command whose result disagrees with the oracle failed every time it ran
        failed = sum(loop.counts[k] if k in mismatches else n for k, n in loop.fails.items())
        report = {"shape": shape(workload, commands, loop, bytes_per_pass),
                  "failed_ratio": failed / loop.attempted,
                  "oracle_checked": result_cmds,
                  "outputs_sha256": gate.digest(),
                  "failures": dict(sorted(gate.failures.items())[:10]),
                  "details": dict(sorted(mismatches.items())[:3])}
        if trace:
            setup_totals = spanlib.LayerTotals()
            setup_totals.add(setup_spans)
            metrics = spanlib.layer_metrics(totals, setup_totals, passes, bytes_per_pass,
                                            overhead)
            units = {name: unit for name, (unit, _) in spanlib.PER_LAYER.items()}
            os.makedirs(OUT_DIR, exist_ok=True)
            report["spans"] = os.path.join(
                OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.json")
            with open(report["spans"], "w", encoding="utf-8") as fh:
                json.dump({"setup": setup_spans, "commands": loop.span_log}, fh)
        else:
            metrics = {
                "cmd_s_p50": statistics.median(loop.samples),
                "cmd_s_p90": statistics.quantiles(loop.samples, n=10, method="inclusive")[-1],
                "verdicts_per_s": loop.verdicts / loop.wall,
                "setup_s": setup_s,
                "peak_rss_mb": loop.maxrss_kb / 1024,
            }
            units = END_TO_END
        result = {
            "correct": failed == 0,
            "attempted": loop.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return {"result": result, "report": report, "gate": gate}
    finally:
        for made in (workload.dir, outputs):
            shutil.rmtree(made, ignore_errors=True)


def record_goldens(workload, outcome: dict) -> None:
    """Store every command's hash and exit code at the default seed."""
    if workload.seed != DEFAULT_SEED:
        raise BenchError(f"goldens are recorded at --seed {DEFAULT_SEED} only")
    if outcome["report"]["details"]:
        raise BenchError("refusing to record goldens that disagree with the oracle")
    gate = outcome["gate"]
    try:
        with open(GOLDENS, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][workload.name] = {
        key: {"sha256": digest, "exit": code} for key, (digest, code, _, _) in gate.first.items()
    }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_report(outcome: dict) -> None:
    report, result = outcome["report"], outcome["result"]
    print("shape " + json.dumps(report["shape"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':<36} {report['failed_ratio']:.6g} ratio")
    print(f"oracle cross-check: {report['oracle_checked']} result commands")
    print(f"outputs_sha256 {report['outputs_sha256']}")
    for key, why in report["failures"].items():
        print(f"FAILED: {key}: {why}")
    for key, problem in report["details"].items():
        print(f"oracle mismatch: {key}: {problem[:300]}")
    if "spans" in report:
        print(f"spans written to {report['spans']}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true",
                        help=f"rewrite bench/goldens.json for this workload (seed {DEFAULT_SEED})")
    args = parser.parse_args(argv)

    root = os.getcwd()
    package = os.path.join(root, "src", "fuzzycover")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        print(f"bench: no fuzzycover sources under {package}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), BENCH_DIR]
    import fuzzycover
    import workloads
    import spans

    if os.path.dirname(os.path.abspath(fuzzycover.__file__)) != package:
        print(f"bench: imported fuzzycover from {fuzzycover.__file__}, not {package}",
              file=sys.stderr)
        return 2
    try:
        workload = workloads.make(args.workload, args.seed)
        outcome = measure(workload, args.seconds, bool(args.trace), root)
        if args.record_goldens:
            record_goldens(workload, outcome)
    except (BenchError, ValueError, spans.MissingFunction) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3
    print_report(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
