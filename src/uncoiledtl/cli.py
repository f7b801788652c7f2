"""Command-line front end: enumeration, construction, and verification as
reproducible JSON-emitting commands.

Exit codes: 0 success, 1 verification failure, 2 non-generic parameters,
3 invalid input; every nonzero code also writes a JSON error to stderr.
The ``utl`` entry point dies of SIGPIPE, without a traceback, when its
reader closes stdout early.
Identical flags and seed produce byte-identical output.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from . import selfcheck as selfcheck_mod
from .algebra import (AlgebraVariant, InfiniteAlgebraError,
                      ResourceLimitError, basis_dimension,
                      basis_enumerate, dimension_closed_form)
from .projectors import (build_projector_Q, gamma_residuals,
                         gamma_solve, gamma_table, gamma_table_conjecture,
                         projector_certificate)
from .reps import (StandardModule, central_matrix, central_eigenvalue,
                   is_scalar_matrix)
from .scalars import (AFFINE_KINDS, STARRED_KINDS, NonGenericParameterError,
                      ParamEnv, sample_env, scalar_to_json, validate_env)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_NONGENERIC = 2
EXIT_INVALID = 3

ALGEBRA_NAMES = {
    "uatl": "uaTL", "uptl": "upTL", "uatl1": "uaTL1", "uptl1": "upTL1",
    "uatl2": "uaTL2", "uptl2": "upTL2", "tl": "TL", "atl": "aTL",
    "ptl": "pTL",
}


# Largest decimal exponent a rational flag may carry: Fraction("1e-N")
# builds 10**N, which for N in the millions runs for minutes.
_MAX_EXPONENT = 4300


def _parse_rational(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > _MAX_EXPONENT
        except ValueError:  # not an exponent; Fraction reports the text
            too_large = False
        if too_large:
            raise ValueError(f"exponent of {text!r} exceeds {_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# the env flags (by dest) that some kinds alone read, with those kinds; any
# other kind refuses the flag, which it would drop
_READ_BY = {"alpha": STARRED_KINDS,  # the kinds whose loops weigh alpha
            "gamma": AFFINE_KINDS + ("upTL", "upTL2"),  # upTL1's turn is 1
            "gamma_root": AFFINE_KINDS}  # the kinds with omega
# the ParamEnv field each rational env flag (by dest) sets; --gamma-root
# sets gamma = omega^n as well
_ENV_FIELDS = {"q_half": "s", "alpha": "alpha", "gamma": "gamma",
               "gamma_root": "omega", "z": "z"}


def _build_env(args, kind: str, n: int) -> ParamEnv:
    given = {dest: text for dest in _ENV_FIELDS
             if (text := getattr(args, dest, None)) is not None}
    for dest, kinds in _READ_BY.items():
        if dest in given and kind not in kinds:
            raise ValueError(f"{kind} reads no --{dest.replace('_', '-')}")
    if "gamma" in given and "gamma_root" in given:
        raise ValueError("--gamma-root sets gamma = omega^n: give it or "
                         "--gamma, not both")
    env = sample_env(args.seed, kind, n)
    if not given:
        return env
    overrides = {_ENV_FIELDS[dest]: _parse_rational(text)
                 for dest, text in given.items()}
    if "gamma_root" in given:
        overrides["gamma"] = overrides["omega"] ** n
    env = env.replace(**overrides)
    validate_env(env, kind, n)
    return env


def _emit(doc) -> None:
    # json writes an int through str(), which refuses more digits than the
    # interpreter's limit (4300 by default): lift it for this call
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(doc, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


def cmd_dims(args) -> int:
    if args.n is not None and args.max_n is not None:
        raise ValueError("--max-n bounds a sweep: give it or --n, not both")
    kind = ALGEBRA_NAMES[args.algebra]
    max_n = 10 if args.max_n is None else args.max_n
    out = {"algebra": args.algebra, "results": []}
    ns = [args.n] if args.n is not None else range(1, max_n + 1)
    ok = True
    for n in ns:
        try:
            variant = AlgebraVariant(kind, n)
        except ValueError:
            if args.n is not None:
                raise
            continue  # a sweep skips the sizes the kind does not admit
        closed = dimension_closed_form(variant)
        row = {"n": n, "closed_form": closed}
        if args.enumerate:
            enum = basis_dimension(variant)
            row["enumerated"] = enum
            row["match"] = enum == closed
            ok = ok and row["match"]
        out["results"].append(row)
    if not out["results"]:  # an empty sweep would pass vacuously
        raise ValueError(f"{kind} admits no size 1 <= n <= {max_n}")
    _emit(out)
    return EXIT_OK if ok else EXIT_VERIFY


# diagrams per piece of the streamed basis document
_BASIS_BLOCK = 1024


def cmd_basis(args) -> int:
    kind = ALGEBRA_NAMES[args.algebra]
    variant = AlgebraVariant(kind, args.n)
    basis = basis_enumerate(variant)
    if args.format == "art":
        print("\n".join(d.art() for d in basis))
        return EXIT_OK
    # json.dumps(doc, sort_keys=True) of the document {algebra, art, basis,
    # dimension, n}, written in key order a block of diagrams at a time: no
    # string or list holds the whole basis
    encode, write = json.JSONEncoder(sort_keys=True).encode, sys.stdout.write
    blocks = [basis[i:i + _BASIS_BLOCK]
              for i in range(0, len(basis), _BASIS_BLOCK)]
    write(f'{{"algebra": {encode(args.algebra)}, "art": "')
    for i, block in enumerate(blocks):  # [1:-1]: the string's inner text
        write(("\\n" if i else "")
              + encode("\n".join(d.art() for d in block))[1:-1])
    write('", "basis": [')
    for i, block in enumerate(blocks):  # [1:-1]: the list's inner text
        write((", " if i else "") + encode([d.to_json() for d in block])[1:-1])
    write(f'], "dimension": {len(basis)}, "n": {args.n}}}\n')
    return EXIT_OK


def cmd_gamma(args) -> int:
    kind = ALGEBRA_NAMES[args.algebra]
    variant = AlgebraVariant(kind, args.n)
    env = _build_env(args, kind, args.n)
    r = args.r
    doc = {"algebra": args.algebra, "n": args.n, "r": r,
           "env": env.to_json(), "method": args.method}
    code = EXIT_OK
    if args.method in ("solver", "both"):
        ts = gamma_solve(variant, args.n, r, env)
        doc["solver"] = ts.to_json()
        res = gamma_residuals(ts)
        doc["solver_residuals_zero"] = all(env.is_zero(v)
                                           for v in res.values())
        if not doc["solver_residuals_zero"]:
            code = EXIT_VERIFY
    if args.method in ("conjecture", "both"):
        tc = gamma_table_conjecture(variant, args.n, r, env)
        doc["conjecture"] = tc.to_json()
    if args.method == "both":
        diff = ts.diff(tc)
        doc["diff"] = [{"k": k, "l2": l2, "value": scalar_to_json(v)}
                       for (k, l2), v in sorted(diff.items())]
        doc["match"] = all(env.is_zero(v) for v in diff.values())
        if not doc["match"]:
            code = EXIT_VERIFY
    _emit(doc)
    return code


def cmd_projector(args) -> int:
    kind = ALGEBRA_NAMES[args.algebra]
    variant = AlgebraVariant(kind, args.n)
    env = _build_env(args, kind, args.n)
    method = args.method
    if args.verify or args.oracle:
        cert = projector_certificate(variant, args.n, args.r, env,
                                     method=method, with_oracle=args.oracle)
        _emit(cert)
        return EXIT_OK if cert["verified"] else EXIT_VERIFY
    q = build_projector_Q(gamma_table(variant, args.n, args.r, env, method))
    doc = {"algebra": args.algebra, "n": args.n, "r": args.r,
           "env": env.to_json(), "projector": q.to_json()}
    _emit(doc)
    return EXIT_OK


def cmd_central(args) -> int:
    if args.k is not None and args.which != "H":
        raise ValueError("--k is the Chebyshev index of --which H alone")
    n = args.n
    env = _build_env(args, "aTL", n)
    if args.d is None:
        ds = list(range(n % 2, n + 1, 2))
    else:
        ds = [args.d]
    k = None if args.k is None else _parse_rational(args.k)
    results = []
    ok = True
    for d in ds:
        module = StandardModule(n, d, env.z, env)
        mat = central_matrix(n, args.which, module, k)
        val = central_eigenvalue(args.which, module, k)
        match = is_scalar_matrix(mat, val, env)
        ok = ok and match
        results.append({"d": d, "eigenvalue": scalar_to_json(val),
                        "scalar_action": match})
    doc = {"which": args.which, "n": n, "k": args.k, "env": env.to_json(),
           "results": results}
    _emit(doc)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_selfcheck(args) -> int:
    report = selfcheck_mod.run_selfcheck(max_n=args.max_n, seed=args.seed)
    doc = {"max_n": args.max_n, "seed": args.seed,
           "checks": [{"name": name, "passed": okc, "detail": detail}
                      for (name, okc, detail) in report],
           "passed": all(okc for (_, okc, _) in report)}
    _emit(doc)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY


# the flags several subcommands share, each given only to those that read it
_SHARED_FLAGS = {
    "--algebra": {"choices": sorted(ALGEBRA_NAMES), "required": True},
    "--seed": {"type": int, "default": 0},
    "--q-half": {"dest": "q_half", "metavar": "P/Q"},
    "--alpha": {"metavar": "P/Q"},
    "--gamma": {"metavar": "P/Q"},
    "--gamma-root": {"dest": "gamma_root", "metavar": "P/Q",
                     "help": "omega; sets gamma = omega^n"},
    "--z": {"metavar": "P/Q"},
    "--format": {"choices": ("json", "art"), "default": "json"},
}
_ENV_FLAGS = ("--seed", "--q-half", "--alpha", "--gamma", "--gamma-root")
# name -> (help, handler, shared flags, own flags with their options), in
# the order build_parser adds them; both parsers read flags from here alone
_COMMANDS = {
    "dims": (
        "closed-form vs enumerated dimensions", cmd_dims, ("--algebra",),
        (("--n", {"type": int}),
         ("--max-n", {"dest": "max_n", "type": int}),
         ("--enumerate", {"action": "store_true"}))),
    "basis": (
        "dump the sandwich basis", cmd_basis, ("--algebra", "--format"),
        (("--n", {"type": int, "required": True}),)),
    "gamma": (
        "Gamma coefficient tables", cmd_gamma, ("--algebra",) + _ENV_FLAGS,
        (("--n", {"type": int, "required": True}),
         ("--r", {"type": int}),
         ("--method", {"choices": ("solver", "conjecture", "both"),
                       "default": "both"}))),
    "projector": (
        "build and verify Q", cmd_projector, ("--algebra",) + _ENV_FLAGS,
        (("--n", {"type": int, "required": True}),
         ("--r", {"type": int}),
         ("--method", {"choices": ("solver", "conjecture"),
                       "default": "solver"}),
         ("--verify", {"action": "store_true"}),
         ("--oracle", {"action": "store_true"}))),
    "central": (
        "central element eigenvalue checks", cmd_central,
        ("--seed", "--q-half", "--z"),
        (("--n", {"type": int, "required": True}),
         ("--d", {"type": int}),
         ("--which", {"choices": ("F", "Fbar", "G", "H", "OmegaN"),
                      "required": True}),
         ("--k", {"help": "Chebyshev index for H (rational)"}))),
    "selfcheck": (
        "run the acceptance battery", cmd_selfcheck, ("--seed",),
        (("--max-n", {"dest": "max_n", "type": int, "default": 4}),)),
}
_COMMAND_NAMES = tuple(_COMMANDS)
# argparse's negative-number test: a value to it, as no utl flag is one
_negative = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _flags(command) -> dict:
    """A command's flags with their add_argument options, shared first."""
    _, _, shared, own = _COMMANDS[command]
    return {**{flag: _SHARED_FLAGS[flag] for flag in shared}, **dict(own)}


def build_parser(command=None):
    """The utl argparse parser; given a command's name, it holds that
    subcommand alone, which parses and reports that command's argv as the
    whole parser does."""
    # imported here alone: with locale, which its messages pull in, it is
    # about 1 ms that a well-formed command line never needs
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a malformed command line like any other invalid input: a
        JSON error on stderr and exit 3, not a usage message."""

        def error(self, message):
            raise ValueError(message)

    p = _Parser(
        prog="utl",
        description="uncoiled Temperley-Lieb algebras: enumeration, "
                    "projectors, verification")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_, func, _, _) in _COMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_)
        for flag, options in _flags(name).items():
            sp.add_argument(flag, **options)
        sp.set_defaults(func=func)
    return p


@cache
def _parser(command=None):
    """The parser of this process for a command (every command for None),
    built on its first use."""
    return build_parser(command)


def _parse_direct(argv):
    """The attributes parse_args sets for a well-formed command line, read
    from the flag table; None for any other line, which argparse parses.

    Well-formed: a command, then flags of that command, each at most once
    and by its exact name, each but a store_true flag followed by a value
    that is a negative number or does not start with "-", is of the flag's
    type and among its choices, and every required flag given.  So help,
    abbreviations, --flag=value and every error go to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _flags(argv[0])
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        options = flags.get(flag)
        if options is None or flag in given:
            return None
        if options.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and not _negative(value):
            return None
        if "type" in options:
            try:
                value = options["type"](value)
            except ValueError:
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    attrs = {"command": argv[0], "func": _COMMANDS[argv[0]][1]}
    for flag, options in flags.items():
        if flag in given:
            value = given[flag]
        elif options.get("required"):
            return None
        elif options.get("action") == "store_true":
            value = False
        else:
            value = options.get("default")
        attrs[options.get("dest", flag[2:].replace("-", "_"))] = value
    return SimpleNamespace(**attrs)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command's own parser is a sixth of the whole one to build
    command = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    try:
        args = _parse_direct(argv)
        if args is None:
            args = _parser(command).parse_args(argv)
        code = args.func(args)
        if code == EXIT_VERIFY:
            print(json.dumps({"error": "verification failed",
                              "detail": f"a check of utl {args.command} "
                                        "is false on stdout"}),
                  file=sys.stderr)
        return code
    except SystemExit as exc:  # --help
        return EXIT_INVALID if exc.code else EXIT_OK
    except NonGenericParameterError as exc:
        print(json.dumps({"error": "non-generic parameters",
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_NONGENERIC
    except (ValueError, InfiniteAlgebraError, ResourceLimitError) as exc:
        print(json.dumps({"error": "invalid input", "detail": str(exc)}),
              file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    # a reader that closes stdout early ends utl quietly, as it ends cat;
    # imported here, as run() alone does not need it (1 ms of start-up)
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
