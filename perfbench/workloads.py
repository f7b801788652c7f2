"""The benchmark's workloads: one round of operations per workload.

Every operation is a dict the worker understands:

* ``{"op": "cli", "argv": [...], "check": <checker>, ...}`` runs
  ``uncoiledtl.cli.run(argv)``, exactly what ``utl <argv>`` does;
* ``{"op": "sectors", "kind": ..., "sizes": [...], "seed": ...}`` makes the
  complex-backend all-``r`` sector solves of acceptance criterion 04, which no
  CLI flag reaches.

The extra keys (``kind``, ``n``, ``r``, ``root``, ``which``, ``k``) are what
the checkers in ``checks.py`` need to judge the output on their own.

A round is the same list of operations every time it runs at one seed, so
every run of a workload attempts whole rounds and the share of failed
operations cannot depend on how long the run was.  The workload seed only
feeds ``random.Random``; each operation gets its own ``--seed`` from it.

Rounds are sized to take 12-16 s here, so that a 30 s run holds the two
rounds ``run.py`` needs to take each operation's faster time.
"""

from __future__ import annotations

import random

# CLI spelling and the exact-rational sizes each workload uses per kind.
CLI_NAME = {"uaTL": "uatl", "upTL": "uptl", "uaTL1": "uatl1",
            "upTL1": "uptl1", "uaTL2": "uatl2", "upTL2": "uptl2"}

# certify: the largest size per kind whose --verify fits a round (uaTL1
# and upTL1 at n = 6 take 10-21 s each, more than a round on their own).
CERTIFY_SIZES = (("uaTL", 5), ("upTL", 5), ("uaTL1", 4), ("upTL1", 4),
                 ("uaTL2", 6), ("upTL2", 6))
CERTIFY_REPEATS = 1

# oracle: n <= 4 (n = 5 takes 22-40 s per operation).
ORACLE_SIZES = (("uaTL", 3), ("upTL", 3), ("uaTL1", 4), ("upTL1", 4),
                ("uaTL2", 4), ("upTL2", 4))
ORACLE_REPEATS = 4

# tables: the sizes with displayed coefficients once, the long rationals
# (n about 20) five times over at other seeds, whose costs vary with the
# sampled parameters.  upTL stops at 15 and upTL2 at 18: above that some
# seeds give integers past Python's 4300-digit str() limit and the CLI
# exits 3 (see CHANGES.md).
DISPLAYED_SIZES = (("upTL1", 2), ("upTL", 3), ("uaTL", 3), ("upTL1", 4),
                   ("upTL2", 4))
LARGE_SIZES = (("uaTL", 21), ("upTL", 15), ("uaTL1", 20), ("upTL1", 20),
               ("uaTL2", 20), ("upTL2", 18))
LARGE_REPEATS = 5
SECTOR_KINDS = ("uaTL", "uaTL1", "uaTL2")
SECTOR_MAX_N = 14

# states: enumeration sweeps, to n = 10 for the odd kinds and the two
# largest bases (uaTL1 peaks at 333 MiB) and to n = 8 for uaTL2 and upTL2,
# whose n = 10 sweeps would push a round past 15 s; then the central
# elements on W_{n,d,z}.
DIMS_MAX_N = {"uaTL": 10, "upTL": 10, "uaTL1": 10, "upTL1": 10,
              "uaTL2": 8, "upTL2": 8}
CENTRAL_NS = range(3, 8)
H_POINTS = ((3, "4"), (4, "3"), (5, "2"), (6, "2"))  # 2nk <= 24

WORKLOADS = ("certify", "oracle", "tables", "states")


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _exact_args(kind: str, n: int, rng: random.Random) -> tuple[list, dict]:
    """--seed plus, for uaTL1, the sector: omega = +1 is r = 0 and
    omega = -1 is r = n/2 (the only sectors exact rationals realise)."""
    argv = ["--algebra", CLI_NAME[kind], "--n", str(n),
            "--seed", str(_op_seed(rng))]
    meta = {"kind": kind, "n": n, "r": None, "root": None}
    if kind == "uaTL1":
        root = rng.choice((1, -1))
        r = 0 if root == 1 else n // 2
        argv += ["--gamma-root", str(root), "--r", str(r)]
        meta.update(r=r, root=root)
    return argv, meta


def _projector_ops(sizes, repeats, oracle, rng):
    ops = []
    for _ in range(repeats):
        for kind, n in sizes:
            argv, meta = _exact_args(kind, n, rng)
            flags = ["--verify"] + (["--oracle"] if oracle else [])
            ops.append({"op": "cli", "argv": ["projector"] + flags + argv,
                        "check": "projector", "oracle": oracle, **meta})
    return ops


def _gamma_op(kind, n, rng):
    argv, meta = _exact_args(kind, n, rng)
    return {"op": "cli", "check": "gamma", **meta,
            "argv": ["gamma", "--method", "both"] + argv}


def _tables_ops(rng):
    ops = [_gamma_op(kind, n, rng) for kind, n in DISPLAYED_SIZES]
    for _ in range(LARGE_REPEATS):
        ops += [_gamma_op(kind, n, rng) for kind, n in LARGE_SIZES]
    for kind in SECTOR_KINDS:
        sizes = list(range(3 if kind == "uaTL" else 2, SECTOR_MAX_N + 1, 2))
        ops.append({"op": "sectors", "check": "sectors", "kind": kind,
                    "sizes": sizes, "seed": _op_seed(rng)})
    return ops


def _states_ops(rng):
    ops = []
    for kind, max_n in DIMS_MAX_N.items():
        ops.append({"op": "cli", "check": "dims", "kind": kind,
                    "max_n": max_n,
                    "argv": ["dims", "--enumerate", "--max-n", str(max_n),
                             "--algebra", CLI_NAME[kind]]})
    points = [(which, n, None) for which in ("F", "Fbar") for n in CENTRAL_NS]
    points += [("H", n, k) for n, k in H_POINTS]
    for which, n, k in points:
        argv = ["central", "--which", which, "--n", str(n),
                "--seed", str(_op_seed(rng))]
        if k is not None:
            argv += ["--k", k]
        ops.append({"op": "cli", "check": "central", "which": which, "n": n,
                    "k": k, "argv": argv})
    return ops


def round_ops(workload: str, seed: int) -> list[dict]:
    """The operations of one round of a workload at a seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return _projector_ops(CERTIFY_SIZES, CERTIFY_REPEATS, False, rng)
    if workload == "oracle":
        return _projector_ops(ORACLE_SIZES, ORACLE_REPEATS, True, rng)
    if workload == "tables":
        return _tables_ops(rng)
    if workload == "states":
        return _states_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")
