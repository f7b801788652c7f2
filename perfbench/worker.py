"""Run one benchmark operation in a fresh interpreter.

``run.py`` starts this file once per operation, so every process-global
cache of ``uncoiledtl`` (link states, wires, the state and diagram pools,
the ``lru_cache`` tables of projectors and q-numbers) starts cold, as it
does for a ``utl`` call.  The request arrives as JSON on stdin and the
result leaves as one JSON object on stdout:

* ``ready``: ``time.perf_counter()`` once ``uncoiledtl.cli`` is imported
  (the clock is system-wide, so the parent subtracts its spawn time);
* ``wall`` and ``cpu``: the operation alone, from the call into the program
  to its return;
* ``code`` and ``stdout``: what ``utl`` would exit with and print;
* ``ref_before`` and ``ref``: the mean time of a fixed reference
  computation just before the operation, and over samples taken before,
  during (every ``SAMPLE_EVERY_S``, on a timer signal) and after it, which
  gauge how fast the machine ran meanwhile.  ``wall`` and ``cpu`` leave
  out the samples taken during the operation;
* ``rss_kib``: the process's own peak resident set, from the OS;
* ``layers`` and ``spans``: with tracing on, see ``tracer.py``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import uncoiledtl.cli  # noqa: E402  (the set-up every utl call pays)

READY = time.perf_counter()

import cmath  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import uncoiledtl  # noqa: E402

if os.path.dirname(os.path.abspath(uncoiledtl.__file__)) != os.path.join(
        SRC, "uncoiledtl"):
    sys.exit(f"uncoiledtl was imported from {uncoiledtl.__file__}, "
             f"not from {SRC}")

# Smallest modulus allowed for any guarded denominator of a complex sector
# point.  Unit-circle points nearer a pole miss the 1e-9 agreement of solver
# and closed form on some seeds; at 0.05 the worst of 120 seeds was 1e-11.
GUARD_MARGIN = 0.05

# Speed samples: every SAMPLE_EVERY_S during an operation, and
# BRACKET_SAMPLES right before and right after it.
SAMPLE_EVERY_S = 0.2
BRACKET_SAMPLES = 5


def reference() -> int:
    """Fixed pure-Python work of the program's kind, about 2 ms on a quiet
    box: Fraction arithmetic on growing integers, tuple hashing and dict
    updates."""
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 5)
        total += f
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + f
    return total.numerator % 1000003 + len(table)


class SpeedProbe:
    """Times reference() on demand, and on SIGALRM while in the block."""

    def __init__(self):
        self.samples = []
        self.in_block_s = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference()
        dur = time.perf_counter() - t0
        self.samples.append(dur)
        return dur

    def _on_alarm(self, signum, frame):
        self.in_block_s += self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kib() -> int:
    """VmHWM, the peak resident set of this process image.  ru_maxrss would
    also count the spawning parent's resident set, which Linux carries over
    the exec into the child's maximum."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _circle_envs(kind, n, rng):
    """All r sectors of one unit-circle parameter point, drawn as
    acceptance criterion 04 draws them and redrawn until generic with
    GUARD_MARGIN to spare."""
    from uncoiledtl.scalars import FLOAT, ParamEnv, guard_values
    for _ in range(1000):
        s = cmath.exp(1j * rng.uniform(0.3, 1.2))
        alpha = complex(rng.uniform(0.5, 2.5))
        gamma = cmath.exp(1j * rng.uniform(0.4, 2.8))
        z = complex(rng.uniform(0.5, 2.0))
        if kind == "uaTL1":
            gamma = complex(1)
        base = ParamEnv(FLOAT, s, alpha, gamma, None, z, 0)
        envs = [base.with_omega(gamma ** (1.0 / n)
                                * cmath.exp(2j * cmath.pi * r / n), n)
                for r in range(n)]
        if all(abs(v) >= GUARD_MARGIN
               for env in envs for v in guard_values(kind, n, env)):
            return envs
    raise RuntimeError(f"no generic sector point for {kind} n={n}")


def _rows(table):
    return [[k, l2, complex(v).real, complex(v).imag]
            for (k, l2), v in sorted(table.items())]


def _sectors(kind, cases):
    """Solver, closed form and residuals for every sector, as one JSON
    document on stdout, through the same library calls as criterion 04."""
    from uncoiledtl import projectors
    from uncoiledtl.algebra import AlgebraVariant
    out = []
    for n, r, env in cases:
        variant = AlgebraVariant(kind, n)
        ts = projectors.gamma_solve(variant, n, r, env)
        tc = projectors.gamma_table_conjecture(variant, n, r, env)
        res = projectors.gamma_residuals(ts)
        out.append({"n": n, "r": r,
                    "omega": [env.omega.real, env.omega.imag],
                    "solver": _rows(ts.entries),
                    "conjecture": _rows(tc.entries),
                    "residuals": _rows(res)})
    print(json.dumps({"kind": kind, "cases": out}, sort_keys=True))
    return 0


def main():
    request = json.loads(sys.stdin.read())
    op = request["op"]
    tracer = None
    run = uncoiledtl.cli.run
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(uncoiledtl)
        run = tracer.span("cli.run", run)
    if op["op"] == "cli":
        def call():
            return run(op["argv"])
    else:
        rng = random.Random(op["seed"])
        cases = [(n, r, env) for n in op["sizes"]
                 for r, env in enumerate(_circle_envs(op["kind"], n, rng))]

        def call():
            return _sectors(op["kind"], cases)
    reference()  # the first call runs cold
    probe = SpeedProbe()
    ref_before = statistics.mean(probe.sample()
                                 for _ in range(BRACKET_SAMPLES))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with probe:
                code = call()
        except Exception:  # reported as a failed operation, with its cause
            code = "exception: " + traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0 - probe.in_block_s
        cpu = time.process_time() - cpu0 - probe.in_block_s
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    result = {"ready": READY, "wall": wall, "cpu": cpu, "code": code,
              "stdout": buf.getvalue(), "ref_before": ref_before,
              "ref": statistics.mean(probe.samples),
              "rss_kib": peak_rss_kib()}
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["spans"] = tracer.records(request["op_id"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
