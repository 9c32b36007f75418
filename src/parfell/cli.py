"""Command line front end.

Every subcommand reads JSON inputs, runs one check suite, and prints a JSON
report envelope to stdout (and to ``--json-out`` when given).  Exit code 0
means every check passed its tolerance, 1 means some defect exceeded it, and
2 means the input was malformed or violated a precondition.  Each
subcommand accepts only the options it reads.  Reports embed the tolerance
registry, every option the run read, and sha256 hashes of all input files,
and a fixed seed makes repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .actions import FinitePartialAction, action_from_json, validate
from .bernoulli import (
    BernoulliWindow,
    CertificationError,
    CylinderFunction,
    QuotientApprox,
    certify_rfd,
    invariant_measure_approx,
    verify_certificate,
)
from .crossed import build_model, bundle_axiom_report
from .groups import (
    MAX_FINITE_ORDER,
    FreeGroup,
    GroupSpec,
    MalformedDataError,
    UndeclaredElementError,
    cyclic_group,
    group_from_json,
    hom_from_json,
    scan_elements,
    trivial_group,
)
from .matrices import EXACT_TOL, TOLERANCES, PreconditionError
from .reps import (
    CovariantRep,
    PartialRepFamily,
    covariance_defects,
    partial_permutations,
    partial_rep_defects,
    perturb_to_partial_isometries,
    std_covariant_rep,
)

# the registry tolerance that decides each subcommand taking --tol;
# covariant-rep and measure decide exact identities against EXACT_TOL
DECISION_TOL = {"defects": "axiom_tol", "bundle-axioms": "axiom_tol"}

# shared options, recorded under these config keys by the subcommands that
# take them; every other option goes under config.options
SHARED_OPTIONS = {"radius": "radius", "seed": "seed", "tol": "decision_tol"}


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes the parents whose options it reads
    scan, randomness, decision, output, certificate = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    scan.add_argument("--radius", type=int, default=3,
                      help="ball radius for free-group element scans")
    randomness.add_argument("--seed", type=int, default=0, help="seed for the random draws")
    decision.add_argument("--tol", type=float, default=None,
                          help="override the subcommand's decision tolerance")
    output.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write the report to this file")
    certificate.add_argument("--group", required=True,
                             help="free:N, cyclic:N, trivial, or a group JSON file")
    certificate.add_argument("--delta", type=float, required=True,
                             help="density tolerance; sets the window depth")
    certificate.add_argument("--hom", default=None,
                             help="homomorphism JSON file (searched when omitted)")
    certificate.add_argument("--max-order", type=int, default=16,
                             help=f"largest quotient order considered, 1..{MAX_FINITE_ORDER}")

    parser = argparse.ArgumentParser(
        prog="parfell",
        description="finite partial dynamical systems and their matrix models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-action", parents=[scan, output],
                       help="check the partial-action axioms of an action file")
    p.add_argument("action", help="action JSON file")

    p = sub.add_parser("covariant-rep", parents=[scan, output],
                       help="build the standard model and report its relation defects")
    p.add_argument("action", help="action JSON file")

    p = sub.add_parser("defects", parents=[scan, randomness, decision, output],
                       help="relation and covariance defects, optionally after noise")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive gaussian noise scale on the element matrices")

    p = sub.add_parser("perturb", parents=[scan, randomness, output],
                       help="round the element matrices to exact partial isometries")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--eta", type=float, required=True,
                   help="quality parameter, must lie strictly between 0 and 1/8")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive gaussian noise scale before rounding")

    p = sub.add_parser("crossed-product", parents=[output],
                       help="finite-group model dimensions")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--expect-dim", type=int, default=None,
                   help="fail unless the model dimension equals this")

    bern = sub.add_parser("bernoulli", help="two-letter shift certificates")
    bsub = bern.add_subparsers(dest="bernoulli_cmd", required=True)
    bsub.add_parser("certify", parents=[certificate, output],
                    help="produce and re-verify a finite-quotient certificate")

    sub.add_parser("measure", parents=[certificate, output],
                   help="averaging state values and invariance defects")

    p = sub.add_parser("bundle-axioms", parents=[scan, randomness, decision, output],
                       help="randomized fiber-arithmetic axiom checks")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--trials", type=int, default=500,
                   help="number of random fiber pairs")

    return parser


# ---------------------------------------------------------------------------
# helpers


def _read_input(path: str, inputs: dict) -> bytes:
    """The bytes of input file ``path``, read once; their sha256 goes into
    ``inputs``, so the recorded hash is of the data parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    inputs[path] = hashlib.sha256(data).hexdigest()
    return data


def _parse_json(data: bytes):
    # decoded as a UTF-8 text-mode read decodes, newlines and error texts included
    return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


def _load_action(path: str, inputs: dict) -> FinitePartialAction:
    return action_from_json(_parse_json(_read_input(path, inputs)))


def _builtin_group(spec: str) -> GroupSpec:
    """The group of a spec that names no file: ``free:r``, ``cyclic:m`` or ``trivial``."""
    if spec == "trivial":
        return trivial_group()
    kind, count = spec.split(":", 1)
    try:
        count = int(count)
    except ValueError:
        raise MalformedDataError(f"--group {kind}:N needs an integer N, got {spec!r}") from None
    return FreeGroup(rank=count) if kind == "free" else cyclic_group(count)


def _json_scalar(obj):
    """``json.dumps`` hook: a numpy scalar as the Python value it holds."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _noised_family(
    rep: CovariantRep, elements: list, sigma: float, seed: int
) -> PartialRepFamily:
    if not 0 <= sigma < math.inf:
        raise MalformedDataError(f"--noise must be finite and >= 0, got {sigma!r}")
    mats = partial_permutations(rep.action.map_rows(elements))
    moved = np.array([t != rep.group.identity for t in elements], dtype=bool)
    if sigma > 0 and moved.any():
        # one draw in the order of per-element real then imaginary parts
        noise = np.random.default_rng(seed).standard_normal((int(moved.sum()), 2, rep.dim, rep.dim))
        mats[moved] = mats[moved] + sigma * (noise[:, 0] + 1j * noise[:, 1]) / np.sqrt(2.0)
    return PartialRepFamily(rep.group, rep.dim, mats=dict(zip(elements, mats)))


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report dict, ok flag, input hash dict)


def _run_validate(args):
    inputs = {}
    action = _load_action(args.action, inputs)
    report = validate(action, radius=args.radius)
    return report.to_json(), report.ok, inputs


def _run_covariant_rep(args):
    inputs = {}
    action = _load_action(args.action, inputs)
    vr = validate(action, radius=args.radius)
    if not vr.ok:
        raise MalformedDataError("action fails validation; run validate-action")
    rep = std_covariant_rep(action)
    elems = scan_elements(action.group, args.radius)
    rel = partial_rep_defects(rep.v, elements=elems)
    cov = covariance_defects(rep, elements=elems)
    report = {
        "points": action.n,
        "dim": rep.dim,
        "relations": rel.to_json(),
        "covariance": cov.to_json(),
    }
    ok = rel.ok(EXACT_TOL) and cov.ok(EXACT_TOL)
    return report, ok, inputs


def _run_defects(args):
    inputs = {}
    action = _load_action(args.action, inputs)
    rep = std_covariant_rep(action)
    elems = scan_elements(action.group, args.radius)
    family = _noised_family(rep, elems, args.noise, args.seed)
    noisy = CovariantRep(action, None, family)
    rel = partial_rep_defects(family, elements=elems)
    cov = covariance_defects(noisy, elements=elems)
    report = {
        "noise": args.noise,
        "relations": rel.to_json(),
        "covariance": cov.to_json(),
    }
    ok = rel.ok(args.tol) and cov.ok(args.tol)
    return report, ok, inputs


def _run_perturb(args):
    inputs = {}
    action = _load_action(args.action, inputs)
    rep = std_covariant_rep(action)
    elems = scan_elements(action.group, args.radius)
    family = _noised_family(rep, elems, args.noise, args.seed)
    rounded, cert = perturb_to_partial_isometries(
        family, args.eta, rep=rep, elements=elems
    )
    report = {"noise": args.noise, "certificate": cert.to_json()}
    return report, cert.ok, inputs


def _run_crossed(args):
    inputs = {}
    action = _load_action(args.action, inputs)
    model = build_model(action)
    dim = model.dimension()
    report = {
        "model_size": model.model_size,
        "dimension": dim,
        "center_dimension": model.center_dimension(),
        "expected_dimension": args.expect_dim,
    }
    ok = args.expect_dim is None or dim == args.expect_dim
    return report, ok, inputs


def _certificate_inputs(args):
    """The input hashes, group and supplied homomorphism (or None) of a
    certificate command."""
    inputs = {}
    builtin = args.group.startswith(("free:", "cyclic:")) or args.group == "trivial"
    # both files are read before either is parsed
    group_data = None if builtin else _read_input(args.group, inputs)
    hom_data = None if args.hom is None else _read_input(args.hom, inputs)
    group = _builtin_group(args.group) if builtin else group_from_json(_parse_json(group_data))
    hom = None if hom_data is None else hom_from_json(_parse_json(hom_data))
    return inputs, group, hom


def _run_certify(args):
    inputs, group, hom = _certificate_inputs(args)
    cert = certify_rfd(group, args.delta, hom=hom, max_order=args.max_order)
    verified = verify_certificate(cert, max_order=args.max_order)
    report = {"certificate": cert.to_json(), "verified": verified}
    return report, verified, inputs


def _run_measure(args):
    inputs, group, hom = _certificate_inputs(args)
    cert = certify_rfd(group, args.delta, hom=hom, max_order=args.max_order)
    tests = [CylinderFunction.constant(1.0)]
    tests.extend(
        CylinderFunction.coordinate_indicator(k) for k in range(1, cert.depth + 1)
    )
    ma = invariant_measure_approx(QuotientApprox(BernoulliWindow.build(group, cert.depth), cert.hom), tests)
    report = {
        "N": cert.depth,
        "quotient_order": cert.hom.target.order,
        "measure": ma.to_json(),
    }
    ok = (
        ma.positive_ok
        and abs(ma.normalization - 1.0) <= EXACT_TOL
        and ma.max_defect <= EXACT_TOL
    )
    return report, ok, inputs


def _run_bundle_axioms(args):
    if args.trials < 0:
        raise MalformedDataError(f"--trials must be >= 0, got {args.trials}")
    inputs = {}
    action = _load_action(args.action, inputs)
    elems = scan_elements(action.group, args.radius)
    report = bundle_axiom_report(
        action, trials=args.trials, seed=args.seed, tol=args.tol, elements=elems
    )
    return report.to_json(), report.ok, inputs


RUNNERS = {
    "validate-action": _run_validate,
    "covariant-rep": _run_covariant_rep,
    "defects": _run_defects,
    "perturb": _run_perturb,
    "crossed-product": _run_crossed,
    "bernoulli certify": _run_certify,
    "measure": _run_measure,
    "bundle-axioms": _run_bundle_axioms,
}


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text json writes for a scalar of each exact type
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _scalar_text(obj) -> str | None:
    """The text of a str, int, float, bool or None, a subclass of str, int
    or float written as its base type; None for anything else."""
    text = _SCALAR_TEXT.get(type(obj))
    if text is None:
        text = next((_SCALAR_TEXT[t] for t in (str, int, float) if isinstance(obj, t)), None)
        if text is None:
            return None
    return text(obj)


def _key_text(key) -> str:
    if not isinstance(key, (str, float, int)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(key if isinstance(key, str) else _scalar_text(key))


def _encode(obj, out: list, pad: str) -> None:
    """Append to ``out`` the text that ``json.dumps(obj, sort_keys=True,
    indent=2, default=_json_scalar)`` writes for ``obj`` at indent ``pad``.
    A list or dict whose values are all plain scalars is written with one
    join."""
    if isinstance(obj, dict):
        items = sorted(obj.items())
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = None
        brackets = "[]"
    else:
        text = _scalar_text(obj)
        if text is not None:
            out.append(text)
        else:
            _encode(_json_scalar(obj), out, pad)
        return
    if not obj:
        out.append(brackets)
        return
    inner = pad + "  "
    sep = ",\n" + inner
    out.append(brackets[0] + "\n" + inner)
    try:
        if items is None:
            out.append(sep.join([_SCALAR_TEXT[type(v)](v) for v in obj]))
        else:
            out.append(sep.join([(encode_basestring_ascii(k) if type(k) is str else _key_text(k))
                                 + ": " + _SCALAR_TEXT[type(v)](v) for k, v in items]))
    except KeyError:  # a value that is not a plain scalar
        for i, v in enumerate(obj if items is None else items):
            if i:
                out.append(sep)
            if items is not None:
                k, v = v
                out.append(_key_text(k) + ": ")
            _encode(v, out, inner)
    out.append("\n" + pad + brackets[1])


def _emit(envelope: dict, json_out: str | None) -> None:
    out: list[str] = []
    _encode(envelope, out, "")
    text = "".join(out) + "\n"
    sys.stdout.write(text)
    if json_out:
        Path(json_out).write_text(text, encoding="utf-8")


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    subcommand = args.subcommand
    if subcommand == "bernoulli":
        subcommand = f"bernoulli {args.bernoulli_cmd}"
    if subcommand in DECISION_TOL and args.tol is None:
        args.tol = TOLERANCES[DECISION_TOL[subcommand]]
    config = {"tolerances": TOLERANCES, "options": {}}
    for key, value in vars(args).items():
        if key in SHARED_OPTIONS:
            config[SHARED_OPTIONS[key]] = value
        elif key not in ("subcommand", "bernoulli_cmd", "json_out"):
            config["options"][key] = value
    head = {"tool": "parfell", "version": __version__, "subcommand": subcommand}

    try:
        if subcommand in DECISION_TOL and not 0 <= args.tol < math.inf:
            raise MalformedDataError(f"--tol must be finite and >= 0, got {args.tol!r}")
        report, ok, inputs = RUNNERS[subcommand](args)
        _emit({**head, "config": config, "inputs": inputs, "report": report, "ok": ok},
              args.json_out)
        return 0 if ok else 1
    except CertificationError as exc:
        _emit({**head, "error": str(exc), "ok": False}, args.json_out)
        return 1
    except (
        MalformedDataError,
        PreconditionError,
        UndeclaredElementError,
        OSError,
        json.JSONDecodeError,
        ValueError,
        KeyError,
    ) as exc:
        _emit({**head, "error": f"{type(exc).__name__}: {exc}", "ok": False}, args.json_out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
