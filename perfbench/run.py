"""The uncoiledtl benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Operations run one at a time, each in a fresh worker process
(``worker.py``), in whole rounds of the workload's operation list
(``workloads.py``): two rounds, then more while another fits in
``--seconds``.  Every output is judged by ``checks.py``, and a wrong answer
counts as a failed operation.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
The two times are in reference seconds: measured seconds times ``REF_S``
over the mean time of a fixed computation (``worker.reference``) sampled
in the same worker before, during (every 0.2 s, on a timer signal) and
after the operation.  Other tenants of this shared 2-core machine slow it
by 1.4-1.7x, for seconds or minutes at a time; raw times then move by more
than any bound a change could be held to, while the scaled ones follow the
program.  The raw times are kept in the run record.

* ``wall_s``: the sum over the round's operations of each one's fastest
  scaled time among the rounds, from the call into the program to its
  return;
* ``setup_s``: the median over operations of the time from spawning the
  worker to ``uncoiledtl.cli`` being imported, scaled by the samples taken
  just after;
* ``peak_rss_mib``: the largest peak resident set of any worker.

With ``--trace 1`` each operation runs twice, untraced and then traced
(``tracer.py``), and the last line carries the per-layer metrics, medians
over rounds of the round's sums.  ``trace.overhead_s`` is traced minus
untraced time, both scaled as ``wall_s`` is.  Each run writes its record
(per-operation times, stdout digests, verdicts and, when traced, the
spans) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
DEADLINE_S = 170  # a run must exit within 180 s
MIN_ROUNDS = 2
# worker.reference() on this machine when no other tenant slows it
REF_S = 0.0019

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("diagrams.multiply_raw.s", "s"),
    ("diagrams.multiply_raw.calls", "count"),
    ("diagrams.interfaces", "count"), ("diagrams.interface_reuse", "ratio"),
    ("diagrams.link_states.s", "s"), ("diagrams.link_states.states", "count"),
    ("diagrams.act_on_state.s", "s"), ("diagrams.act_on_state.calls", "count"),
    ("algebra.mul.s", "s"), ("algebra.mul.calls", "count"),
    ("algebra.mul.term_pairs", "count"), ("algebra.mul.peak_terms", "count"),
    ("algebra.reduce.calls", "count"),
    ("algebra.reduce.memo_hit_ratio", "ratio"),
    ("algebra.basis_enumerate.s", "s"),
    ("algebra.basis_enumerate.diagrams", "count"),
    ("linalg.echelon.s", "s"), ("linalg.echelon.rows", "count"),
    ("linalg.echelon.cols", "count"), ("linalg.echelon.nonzeros", "count"),
    ("linalg.echelon.pivots", "count"),
    ("reps.matrix_of.s", "s"), ("reps.central_matrix.s", "s"),
    ("reps.braid_transfer.s", "s"),
    ("projectors.gamma_solve.s", "s"),
    ("projectors.gamma_table_conjecture.s", "s"),
    ("projectors.gamma_residuals.s", "s"),
    ("projectors.gamma_entries", "count"),
    ("projectors.wenzl_jones_P.s", "s"), ("projectors.build_Z.s", "s"),
    ("projectors.build_projector_Q.s", "s"), ("projectors.Q_terms", "count"),
    ("projectors.projector_oracle.s", "s"),
    ("projectors.certificate_checks.s", "s"),
    ("scalars.sample_env.s", "s"), ("scalars.validate_env.s", "s"),
    ("cli.run.s", "s"), ("cli.stdout_bytes", "bytes"), ("cli.cpu_s", "s"),
    ("trace.overhead_s", "s"),
)
PEAKS = ("algebra.mul.peak_terms",)  # combined over operations by max


def run_op(op: dict, op_id: int, trace: bool, deadline: float) -> dict:
    """Spawn a worker for one operation and judge what it returns."""
    if time.perf_counter() >= deadline:
        return {"verdict": "not run: the run is past its deadline",
                "wrong": False}
    request = json.dumps({"op": op, "op_id": op_id, "trace": trace})
    spawn = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(
            request, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"verdict": "timed out", "wrong": False}
    if proc.returncode != 0:
        return {"verdict": f"worker exit {proc.returncode}: {err[-500:]}",
                "wrong": False}
    res = json.loads(out)
    stdout = res.pop("stdout")
    res["setup"] = res.pop("ready") - spawn
    verdict = checks.verdict(op, res["code"], stdout)
    if verdict is not None and err:
        verdict += f" (stderr: {err[-300:]})"
    return {**res, "stdout_bytes": len(stdout.encode()),
            "digest": hashlib.sha256(stdout.encode()).hexdigest(),
            "verdict": verdict,
            # a completed operation whose answer is wrong, not a crash
            "wrong": verdict is not None and res["code"] in (0, 1)}


def run_round(ops, trace: bool, deadline: float, digests: dict) -> list:
    """One pass over the operation list; with tracing, each operation runs
    untraced then traced and fails if either does or their outputs differ."""
    results = []
    for op_id, op in enumerate(ops):
        res = run_op(op, op_id, False, deadline)
        if trace and res["verdict"] is None:
            res["traced"] = run_op(op, op_id, True, deadline)
            if res["traced"]["verdict"] is not None:
                res["verdict"] = "traced: " + res["traced"]["verdict"]
                res["wrong"] = res["traced"]["wrong"]
            elif res["traced"]["digest"] != res["digest"]:
                res["verdict"] = "tracing changed the output"
                res["wrong"] = True
        if res["verdict"] is None:
            first = digests.setdefault(op_id, res["digest"])
            if first != res["digest"]:
                res["verdict"] = "stdout differs from the first round"
                res["wrong"] = True
        results.append(res)
    return results


def _fastest_sum(rounds, time_of) -> float:
    return sum(min((time_of(rnd[i]) for rnd in rounds if "wall" in rnd[i]),
                   default=0.0) for i in range(len(rounds[0])))


def _scaled_wall(res) -> float:
    return res["wall"] * REF_S / res["ref"]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(rounds) -> dict:
    ran = [res for rnd in rounds for res in rnd if "wall" in res]
    return {
        "wall_s": _fastest_sum(rounds, _scaled_wall),
        "setup_s": _median(res["setup"] * REF_S / res["ref_before"]
                           for res in ran),
        "peak_rss_mib": max((res["rss_kib"] for res in ran), default=0) / 1024,
    }


def raw_times(rounds) -> dict:
    ran = [res for rnd in rounds for res in rnd if "wall" in res]
    return {"wall_s": _fastest_sum(rounds, lambda res: res["wall"]),
            "setup_s": _median(res["setup"] for res in ran),
            "ref_s": _median(res["ref"] for res in ran)}


def _round_layers(rnd) -> dict:
    total = {}
    for res in rnd:
        traced = res.get("traced", {})
        for key, value in traced.get("layers", {}).items():
            if key in PEAKS:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
        if "wall" in traced:
            total["cli.stdout_bytes"] = (total.get("cli.stdout_bytes", 0)
                                         + res["stdout_bytes"])
            total["cli.cpu_s"] = total.get("cli.cpu_s", 0.0) + res["cpu"]
            total["trace.overhead_s"] = (total.get("trace.overhead_s", 0.0)
                                         + _scaled_wall(traced)
                                         - _scaled_wall(res))
    calls = total.get("diagrams.multiply_raw.calls", 0)
    interfaces = total.get("diagrams.interfaces", 0)
    total["diagrams.interface_reuse"] = calls / interfaces if interfaces else 0
    pairs = total.get("algebra.mul.term_pairs", 0)
    misses = total.get("algebra.reduce.calls", 0)
    total["algebra.reduce.memo_hit_ratio"] = 1 - misses / pairs if pairs else 0
    return total


def per_layer(rounds) -> dict:
    layers = [_round_layers(rnd) for rnd in rounds]
    return {name: statistics.median_low(lay.get(name, 0) for lay in layers)
            for name, _unit in PER_LAYER}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "uncoiledtl" / "__init__.py").is_file():
        print(f"no uncoiledtl sources under {ROOT / 'src'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    # Python's "build": byte-compile once, so no worker pays for it.
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        print("byte-compiling src/ failed", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checkers parse long rationals
    problems = checks.self_test()
    ops = workloads.round_ops(args.workload, args.seed)
    trace = bool(args.trace)

    rounds, digests, longest = [], {}, 0.0
    while True:
        began = time.perf_counter()
        rounds.append(run_round(ops, trace, deadline, digests))
        now = time.perf_counter()
        longest = max(longest, now - began)
        if now + longest > deadline or (
                len(rounds) >= MIN_ROUNDS
                and now - start + longest > args.seconds):
            break

    results = [res for rnd in rounds for res in rnd]
    failed = [res for res in results if res["verdict"] is not None]
    wrong = [res for res in failed if res["wrong"]]
    metrics = per_layer(rounds) if trace else end_to_end(rounds)
    units = dict(PER_LAYER if trace else END_TO_END)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    # span rows: round, op id, name, start, end, parent (index among the
    # operation's spans), hot leaves folded in ({name: [calls, seconds]})
    spans = [[number] + span for number, rnd in enumerate(rounds)
             for res in rnd for span in res.get("traced", {}).pop("spans", [])]
    with open(record, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "self_test_problems": problems,
                   "ops": ops, "rounds": rounds, "metrics": metrics,
                   "raw_times": raw_times(rounds),
                   "spans": spans}, fh)

    for problem in problems:
        print(f"checker self-test: {problem}")
    for res in failed:
        print(f"failed: {res['verdict']}")
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s) of "
          f"{len(ops)} operations, {len(failed)} failed; record in "
          f"{record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems and not wrong,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
