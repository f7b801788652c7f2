"""Checks of each operation's output, made apart from the program.

Nothing here imports ``uncoiledtl``.  The checkers recompute what they
compare against from the paper's statements: the initial Gamma row, the
displayed small-size coefficients, the dimension corollaries and the
central-element eigenvalues, all in exact ``Fraction`` arithmetic at the
parameters the output itself reports.  Where the paper gives no closed
value (a full Gamma table), the two methods and the recurrence residuals
must agree.

A checker returns ``None`` when the output is right and a short reason
otherwise; ``verdict`` turns every other outcome (a nonzero exit, output
that is not one JSON document, a missing key) into a reason as well.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

AFFINE = ("uaTL", "uaTL1", "uaTL2")
FLOAT_RTOL = 1e-9


def _q(text) -> Fraction:
    return Fraction(text)


def _env(doc_env: dict) -> dict:
    if doc_env["backend"] != "exact-rational":
        raise ValueError(f"unexpected backend {doc_env['backend']!r}")
    env = {key: None if doc_env[key] is None else _q(doc_env[key])
           for key in ("s", "alpha", "gamma", "omega", "z")}
    env["q"] = env["s"] ** 2
    env["beta"] = -env["q"] - 1 / env["q"]
    return env


def _table(doc_table: dict) -> dict:
    return {(e["k"], e["l2"]): _q(e["value"]) for e in doc_table["entries"]}


def initial_row(kind: str, n: int, omega):
    """Gamma_{0,l}, keyed by l2 = 2l: omega^(-2l)/n over the n half-integer
    windings of the affine kinds, delta_{l,0} over the periodic window
    (l < n for upTL, l < n/2 for upTL1 and upTL2)."""
    if kind in AFFINE:
        return {l2: omega ** -l2 / n for l2 in range(n)}
    count = n if kind == "upTL" else n // 2
    return {2 * l: (1 if l == 0 else 0) for l in range(count)}


def displayed_coefficients(kind: str, n: int, env: dict) -> dict:
    """The closed values the paper displays for the smallest projectors,
    keyed by (k, l2); empty for every other (kind, n)."""
    b, a, g, w = env["beta"], env["alpha"], env["gamma"], env["omega"]
    if (kind, n) == ("upTL1", 2):
        return {(1, 0): b / (a ** 2 - b ** 2)}
    if (kind, n) == ("upTL", 3):
        return {(1, 0): -(b ** 2 - 1) / (g ** 2 + g ** -2 + b * (b ** 2 - 3))}
    if (kind, n) == ("upTL1", 4):
        return {(1, 0): -(b ** 2 - 2) / (b * (b ** 2 - 4)),
                (2, 0): -((b ** 2 - 2) / (b ** 2 - 4))
                / (a ** 2 - (b ** 2 - 2) ** 2)}
    if (kind, n) == ("upTL2", 4):
        return {(1, 0): b * (b ** 2 - 2)
                / (g + 1 / g - b ** 4 + 4 * b ** 2 - 2)}
    if (kind, n) == ("uaTL", 3):
        return {(1, 0): -1 / (3 * (w ** 2 + w ** -2 + b))}
    return {}


def dimension(kind: str, n: int) -> int:
    """The dimension corollaries of the six uncoiled algebras."""
    if kind in ("uaTL", "upTL"):
        c = math.comb(n - 1, (n - 1) // 2) ** 2
        return n * c - (n - 1 if kind == "upTL" else 0)
    c = math.comb(n - 1, n // 2) ** 2
    h = n // 2
    return {"uaTL1": (n + 4) * c, "upTL1": (h + 4) * c - (h - 1),
            "uaTL2": n * c, "upTL2": h * c - (h - 1)}[kind]


def eigenvalue(which: str, n: int, d: int, k, z, s):
    """The predicted scalar of F, Fbar or H(k) on W_{n,d,z}, with q = s^2."""
    sd = s ** d  # q^(d/2)
    if which == "F":
        return z * sd + 1 / (z * sd)
    if which == "Fbar":
        return z / sd + sd / z
    if which == "H":
        k = Fraction(k)
        q = s * s
        e1, e2, e3, e4 = 2 * n * k, n * k * d, n * n * k, 2 * d * k
        if any(e.denominator != 1 for e in (e1, e2, e3, e4)):
            raise ValueError(f"H({k}) has a fractional exponent at n={n}")
        e1, e2, e3, e4 = (int(e) for e in (e1, e2, e3, e4))
        return (z ** e1 * q ** e2 + z ** -e1 * q ** -e2
                - q ** e3 * z ** e4 - q ** -e3 * z ** -e4)
    raise ValueError(f"no prediction for {which!r}")


def _legal_sizes(kind: str, max_n: int):
    return range(1 if kind in ("uaTL", "upTL") else 2, max_n + 1, 2)


def _check_env(op: dict, env: dict):
    if op.get("root") is not None:
        root = op["root"]
        if env["omega"] != root or env["gamma"] != Fraction(root) ** op["n"]:
            return f"env omega/gamma do not follow --gamma-root {root}"
    return None


def _check_initial(kind, n, env, table):
    want = initial_row(kind, n, env["omega"])
    got = {l2: v for (k, l2), v in table.items() if k == 0}
    if got != want:
        return "k = 0 Gamma row differs from the initial condition"
    return None


def check_projector(op: dict, doc: dict):
    want = {"idempotent", "annihilated", "recurrence_residual_zero"}
    if op["kind"] in AFFINE:
        want.add("omega_eigen")
    if op["oracle"]:
        want.add("matches_oracle")
    checks = doc["checks"]
    if set(checks) != want:
        return f"check keys {sorted(checks)}, expected {sorted(want)}"
    bad = sorted(key for key, ok in checks.items() if ok is not True)
    if bad or doc["verified"] is not True:
        return f"not verified: {bad}"
    if (doc["variant"], doc["n"], doc["r"]) != (op["kind"], op["n"], op["r"]):
        return "certificate is for another projector"
    env = _env(doc["env"])
    return _check_env(op, env) or _check_initial(
        op["kind"], op["n"], env, _table(doc["gamma_table"]))


def check_gamma(op: dict, doc: dict):
    if doc["match"] is not True or doc["solver_residuals_zero"] is not True:
        return "solver and conjecture disagree or residuals are nonzero"
    if any(d["value"] != "0" for d in doc["diff"]):
        return "nonzero entry in diff"
    if (doc["n"], doc["r"]) != (op["n"], op["r"]):
        return "table is for another size or sector"
    solver, conj = _table(doc["solver"]), _table(doc["conjecture"])
    if solver != conj:
        return "emitted solver and conjecture tables differ"
    env = _env(doc["env"])
    bad = _check_env(op, env) or _check_initial(op["kind"], op["n"], env,
                                                solver)
    if bad:
        return bad
    for key, want in displayed_coefficients(op["kind"], op["n"], env).items():
        if solver.get(key) != want:
            return f"Gamma{key} differs from the displayed coefficient"
    return None


def check_sectors(op: dict, doc: dict):
    if [(c["n"], c["r"]) for c in doc["cases"]] != [
            (n, r) for n in op["sizes"] for r in range(n)]:
        return "missing or extra sectors"
    for case in doc["cases"]:
        n = case["n"]
        solver = {(k, l2): complex(re, im)
                  for k, l2, re, im in case["solver"]}
        conj = {(k, l2): complex(re, im)
                for k, l2, re, im in case["conjecture"]}
        if set(solver) != set(conj):
            return f"n={n} r={case['r']}: tables have different keys"
        omega = complex(*case["omega"])
        scale = max(1.0, max(abs(v) for v in solver.values()))
        tol = FLOAT_RTOL * scale
        errs = [abs(solver[key] - conj[key]) for key in solver]
        errs += [abs(complex(re, im)) for _, _, re, im in case["residuals"]]
        errs += [abs(solver[(0, l2)] - omega ** -l2 / n) for l2 in range(n)]
        if max(errs) > tol:
            return f"n={n} r={case['r']}: error {max(errs):.2e} > {tol:.2e}"
    return None


def check_dims(op: dict, doc: dict):
    rows = doc["results"]
    if [row["n"] for row in rows] != list(_legal_sizes(op["kind"],
                                                       op["max_n"])):
        return "sweep misses sizes"
    for row in rows:
        want = dimension(op["kind"], row["n"])
        if (row["enumerated"], row["closed_form"], row["match"]) != (
                want, want, True):
            return f"n={row['n']}: dimension is not {want}"
    return None


def check_central(op: dict, doc: dict):
    n = op["n"]
    env = _env(doc["env"])
    rows = doc["results"]
    if [row["d"] for row in rows] != list(range(n % 2, n + 1, 2)):
        return "missing sectors d"
    for row in rows:
        want = eigenvalue(op["which"], n, row["d"], op["k"], env["z"],
                          env["s"])
        if row["scalar_action"] is not True:
            return f"d={row['d']}: action is not scalar"
        if _q(row["eigenvalue"]) != want:
            return f"d={row['d']}: eigenvalue differs from the prediction"
    return None


CHECKERS = {"projector": check_projector, "gamma": check_gamma,
            "sectors": check_sectors, "dims": check_dims,
            "central": check_central}


def verdict(op: dict, code, stdout: str):
    """None when the operation succeeded with a right answer, else why not."""
    if code != 0:
        return f"exit {code}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        return CHECKERS[op["check"]](op, doc)
    except (KeyError, TypeError, ValueError, IndexError,
            ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


# -- self-test ----------------------------------------------------------------

def _s(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def _sample_docs():
    """Right outputs, written by hand from the formulas above:
    (op, document, alteration that must make the checker fail)."""
    s, alpha, z = Fraction(2, 3), Fraction(5, 2), Fraction(3, 2)
    env_json = {"backend": "exact-rational", "s": _s(s), "alpha": _s(alpha),
                "gamma": "1", "omega": None, "z": _s(z), "rng_seed": 0}
    env = _env(env_json)

    table = {(0, 0): Fraction(1)}
    table.update(displayed_coefficients("upTL1", 2, env))
    entries = [{"k": k, "l2": l2, "value": _s(v)}
               for (k, l2), v in sorted(table.items())]
    gamma_doc = {"algebra": "uptl1", "n": 2, "r": None, "env": env_json,
                 "method": "both", "match": True,
                 "solver_residuals_zero": True,
                 "solver": {"variant": "upTL1", "n": 2, "r": None,
                            "entries": entries},
                 "conjecture": {"variant": "upTL1", "n": 2, "r": None,
                                "entries": entries},
                 "diff": [{"k": k, "l2": l2, "value": "0"}
                          for (k, l2) in sorted(table)]}
    gamma_op = {"check": "gamma", "kind": "upTL1", "n": 2, "r": None,
                "root": None}

    def alter_gamma(doc):
        for side in ("solver", "conjecture"):  # both, so that they agree
            doc[side]["entries"][1]["value"] = _s(
                _q(doc[side]["entries"][1]["value"]) + 1)

    dims_doc = {"algebra": "uatl", "results": [
        {"n": n, "closed_form": dimension("uaTL", n),
         "enumerated": dimension("uaTL", n), "match": True}
        for n in _legal_sizes("uaTL", 10)]}
    dims_op = {"check": "dims", "kind": "uaTL", "max_n": 10}

    def alter_dims(doc):
        doc["results"][2]["enumerated"] += 1  # match left true on purpose

    central_doc = {"which": "F", "n": 3, "k": None, "env": env_json,
                   "results": [{"d": d, "scalar_action": True,
                                "eigenvalue": _s(eigenvalue("F", 3, d, None,
                                                            z, s))}
                               for d in (1, 3)]}
    central_op = {"check": "central", "which": "F", "n": 3, "k": None}

    def alter_central(doc):
        doc["results"][1]["eigenvalue"] = _s(
            _q(doc["results"][1]["eigenvalue"]) * 2)

    return [(gamma_op, gamma_doc, alter_gamma),
            (dims_op, dims_doc, alter_dims),
            (central_op, central_doc, alter_central)]


def self_test() -> list[str]:
    """Problems found by feeding the checkers right and hand-altered
    documents; empty when every right one passes and every altered one
    is counted as failed."""
    problems = []
    for op, doc, alter in _sample_docs():
        if verdict(op, 0, json.dumps(doc)) is not None:
            problems.append(f"{op['check']}: right document rejected: "
                            f"{verdict(op, 0, json.dumps(doc))}")
        alter(doc)
        if verdict(op, 0, json.dumps(doc)) is None:
            problems.append(f"{op['check']}: altered document accepted")
    return problems
