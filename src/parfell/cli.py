"""Command line front end.

Every subcommand reads JSON inputs, runs one check suite, and prints a JSON
report envelope to stdout (and to ``--json-out`` when given).  Exit code 0
means every check passed its tolerance, 1 means some defect exceeded it, and
2 means the input was malformed or violated a precondition.  Reports embed
the tolerance set, the seed, and sha256 hashes of all input files, and a
fixed seed makes repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .actions import DualSystem, FinitePartialAction, action_from_json, validate
from .bernoulli import (
    MAX_QUOTIENT_ORDER,
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
from .matrices import AXIOM_TOL, EXACT_TOL, NORM_TOL, PI_TOL, PreconditionError
from .reps import (
    CovariantRep,
    PartialRepFamily,
    covariance_defects,
    partial_permutations,
    partial_rep_defects,
    perturb_to_partial_isometries,
    std_covariant_rep,
)

DEFAULT_TOLERANCES = {
    "axiom_tol": AXIOM_TOL,
    "exact_tol": EXACT_TOL,
    "norm_tol": NORM_TOL,
    "pi_tol": PI_TOL,
}

# decision tolerance drawn from the set above, per subcommand
DECISION_TOL = {
    "validate-action": None,
    "covariant-rep": "exact_tol",
    "defects": "axiom_tol",
    "perturb": None,
    "crossed-product": None,
    "bernoulli certify": None,
    "measure": "exact_tol",
    "bundle-axioms": "axiom_tol",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the subcommand's decision tolerance")
    common.add_argument("--radius", type=int, default=3,
                        help="ball radius for free-group element scans")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites (PARFELL_SEED wins)")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallelism degree (recorded; checks are cheap)")
    common.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write the report to this file")

    parser = argparse.ArgumentParser(
        prog="parfell",
        description="finite partial dynamical systems and their matrix models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate-action", parents=[common],
                       help="check the partial-action axioms of an action file")
    p.add_argument("action", help="action JSON file")

    p = sub.add_parser("covariant-rep", parents=[common],
                       help="build the standard model and report its relation defects")
    p.add_argument("action", help="action JSON file")

    p = sub.add_parser("defects", parents=[common],
                       help="relation and covariance defects, optionally after noise")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive gaussian noise scale on the element matrices")

    p = sub.add_parser("perturb", parents=[common],
                       help="round the element matrices to exact partial isometries")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--eta", type=float, required=True,
                   help="quality parameter, must lie strictly between 0 and 1/8")
    p.add_argument("--noise", type=float, default=0.0,
                   help="additive gaussian noise scale before rounding")

    p = sub.add_parser("crossed-product", parents=[common],
                       help="finite-group model dimensions")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--expect-dim", type=int, default=None,
                   help="fail unless the model dimension equals this")

    bern = sub.add_parser("bernoulli", help="two-letter shift certificates")
    bsub = bern.add_subparsers(dest="bernoulli_cmd", required=True)
    p = bsub.add_parser("certify", parents=[common],
                        help="produce and re-verify a finite-quotient certificate")
    p.add_argument("--group", required=True,
                   help="free:N, cyclic:N, trivial, or a group JSON file")
    p.add_argument("--delta", type=float, required=True,
                   help="density tolerance; sets the window depth")
    p.add_argument("--hom", default=None,
                   help="homomorphism JSON file (searched when omitted)")
    p.add_argument("--max-order", type=int, default=16,
                   help=f"largest quotient order considered, at most {MAX_QUOTIENT_ORDER}")

    p = sub.add_parser("measure", parents=[common],
                       help="averaging state values and invariance defects")
    p.add_argument("--group", required=True,
                   help="free:N, cyclic:N, trivial, or a group JSON file")
    p.add_argument("--delta", type=float, required=True,
                   help="density tolerance; sets the window depth")
    p.add_argument("--hom", default=None,
                   help="homomorphism JSON file (searched when omitted)")
    p.add_argument("--max-order", type=int, default=16,
                   help=f"largest quotient order considered, at most {MAX_QUOTIENT_ORDER}")

    p = sub.add_parser("bundle-axioms", parents=[common],
                       help="randomized fiber-arithmetic axiom checks")
    p.add_argument("action", help="action JSON file")
    p.add_argument("--trials", type=int, default=500,
                   help="number of random fiber pairs")

    return parser


# ---------------------------------------------------------------------------
# helpers


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_action(path: str) -> FinitePartialAction:
    return action_from_json(_load_json(path))


def _parse_group(spec: str) -> GroupSpec:
    if spec.startswith("free:"):
        return FreeGroup(rank=int(spec.split(":", 1)[1]))
    if spec.startswith("cyclic:"):
        return cyclic_group(int(spec.split(":", 1)[1]))
    if spec == "trivial":
        return trivial_group()
    return group_from_json(_load_json(spec))


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("PARFELL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise MalformedDataError("PARFELL_SEED must be an integer") from None
    return int(args.seed)


def _decision_tol(args: argparse.Namespace, subcommand: str) -> float | None:
    if args.tol is not None:
        return float(args.tol)
    key = DECISION_TOL.get(subcommand)
    return DEFAULT_TOLERANCES[key] if key else None


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _noised_family(
    rep: CovariantRep, elements: list, sigma: float, seed: int
) -> PartialRepFamily:
    if not 0 <= sigma < math.inf:
        raise MalformedDataError(f"--noise must be finite and >= 0, got {sigma!r}")
    mats = partial_permutations(rep.dual.action.map_rows(elements))
    moved = np.array([t != rep.group.identity for t in elements], dtype=bool)
    if sigma > 0 and moved.any():
        # one draw in the order of per-element real then imaginary parts
        noise = np.random.default_rng(seed).standard_normal((int(moved.sum()), 2, rep.dim, rep.dim))
        mats[moved] = mats[moved] + sigma * (noise[:, 0] + 1j * noise[:, 1]) / np.sqrt(2.0)
    return PartialRepFamily(rep.group, rep.dim, mats=dict(zip(elements, mats)))


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report dict, ok flag, input hash dict)


def _run_validate(args, seed, tol):
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
    report = validate(action, radius=args.radius)
    return report.to_json(), report.ok, inputs


def _run_covariant_rep(args, seed, tol):
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
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
    ok = rel.ok(tol) and cov.ok(tol)
    return report, ok, inputs


def _run_defects(args, seed, tol):
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
    rep = std_covariant_rep(action)
    elems = scan_elements(action.group, args.radius)
    family = _noised_family(rep, elems, args.noise, seed)
    noisy = CovariantRep(rep.dual, rep.phi_mats, family)
    rel = partial_rep_defects(family, elements=elems)
    cov = covariance_defects(noisy, elements=elems)
    report = {
        "noise": args.noise,
        "relations": rel.to_json(),
        "covariance": cov.to_json(),
    }
    ok = rel.ok(tol) and cov.ok(tol)
    return report, ok, inputs


def _run_perturb(args, seed, tol):
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
    rep = std_covariant_rep(action)
    elems = scan_elements(action.group, args.radius)
    family = _noised_family(rep, elems, args.noise, seed)
    rounded, cert = perturb_to_partial_isometries(
        family, args.eta, rep=rep, elements=elems
    )
    report = {"noise": args.noise, "certificate": cert.to_json()}
    return report, cert.ok, inputs


def _run_crossed(args, seed, tol):
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
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
    if not (args.group.startswith(("free:", "cyclic:")) or args.group == "trivial"):
        inputs[args.group] = _sha256(args.group)
    if args.hom is not None:
        inputs[args.hom] = _sha256(args.hom)
    group = _parse_group(args.group)
    hom = hom_from_json(_load_json(args.hom)) if args.hom else None
    return inputs, group, hom


def _run_certify(args, seed, tol):
    inputs, group, hom = _certificate_inputs(args)
    cert = certify_rfd(group, args.delta, hom=hom, max_order=args.max_order)
    verified = verify_certificate(cert, max_order=args.max_order)
    report = {"certificate": cert.to_json(), "verified": verified}
    return report, verified, inputs


def _run_measure(args, seed, tol):
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
        and abs(ma.normalization - 1.0) <= tol
        and ma.max_defect <= tol
    )
    return report, ok, inputs


def _run_bundle_axioms(args, seed, tol):
    if args.trials < 0:
        raise MalformedDataError(f"--trials must be >= 0, got {args.trials}")
    inputs = {args.action: _sha256(args.action)}
    action = _load_action(args.action)
    dual = DualSystem(action)
    elems = scan_elements(action.group, args.radius)
    report = bundle_axiom_report(
        dual, trials=args.trials, seed=seed, tol=tol, elements=elems
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


def _emit(envelope: dict, json_out: str | None) -> None:
    text = json.dumps(_sanitize(envelope), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if json_out:
        Path(json_out).write_text(text, encoding="utf-8")


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    subcommand = args.subcommand
    if subcommand == "bernoulli":
        subcommand = f"bernoulli {args.bernoulli_cmd}"

    option_keys = ("noise", "eta", "expect_dim", "group", "delta", "hom",
                   "max_order", "trials", "action")
    options = {k: getattr(args, k) for k in option_keys if hasattr(args, k)}

    try:
        seed = _resolve_seed(args)
        tol = _decision_tol(args, subcommand)
        config = {
            "tolerances": dict(DEFAULT_TOLERANCES),
            "decision_tol": tol,
            "radius": args.radius,
            "seed": seed,
            "jobs": args.jobs,
            "options": options,
        }
        report, ok, inputs = RUNNERS[subcommand](args, seed, tol)
        _emit(
            {
                "tool": "parfell",
                "version": __version__,
                "subcommand": subcommand,
                "config": config,
                "inputs": inputs,
                "report": report,
                "ok": ok,
            },
            args.json_out,
        )
        return 0 if ok else 1
    except CertificationError as exc:
        _emit(
            {
                "tool": "parfell",
                "version": __version__,
                "subcommand": subcommand,
                "error": str(exc),
                "ok": False,
            },
            args.json_out,
        )
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
        _emit(
            {
                "tool": "parfell",
                "version": __version__,
                "subcommand": subcommand,
                "error": f"{type(exc).__name__}: {exc}",
                "ok": False,
            },
            args.json_out,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
