"""Command-line surface: expansion, dissection, certification, theorem runs.

Exit codes are a stable contract:
  0   success / verified
  1   a theorem pipeline step failed
  2   cusp-sum hypothesis violated (certificate cannot apply)
  3   a checked coefficient was nonzero (counterexample witness emitted)
  4   strict mode: admissibility of the instance tuple was not verifiable
  64  usage or parse error, or an output that cannot be written
  65  required expansion order exceeds the cap
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile

from .finite_check import (
    DEFAULT_ORDER_CAP,
    STATUS_COUNTEREXAMPLE,
    STATUS_DELTA_STAR_UNVERIFIED,
    STATUS_HYPOTHESIS_VIOLATION,
    STATUS_VERIFIED,
    OrderCapExceeded,
    RSInstance,
    _check_order,
    verify_instance,
)
from .series import (
    EtaQuotientSpec,
    _check_modulus,
    expand_eta_quotient,
    tracing,
)
from .pipelines import _THEOREMS, run_theorem

__all__ = ["main"]

EXIT_OK = 0
EXIT_STEP_FAILED = 1
EXIT_HYPOTHESIS = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_DELTA_STAR = 4
EXIT_USAGE = 64
EXIT_ORDER_CAP = 65

_STATUS_EXIT = {
    STATUS_VERIFIED: EXIT_OK,
    STATUS_HYPOTHESIS_VIOLATION: EXIT_HYPOTHESIS,
    STATUS_COUNTEREXAMPLE: EXIT_COUNTEREXAMPLE,
    STATUS_DELTA_STAR_UNVERIFIED: EXIT_DELTA_STAR,
}

_THEOREM_BY_ID = {row.alias: theorem_id for theorem_id, row in _THEOREMS.items()}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with the hypothesis-
    # violation code; usage problems must exit 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _order_cap_default() -> int:
    raw = os.environ.get("ETA_CERT_ORDER_CAP")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"ETA_CERT_ORDER_CAP must be an integer, got {raw!r}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".etacert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_TRACE_HELP = "write the series kernel's expansion and product counts to FILE as JSON"


@functools.cache  # set-up costs about 0.6 ms: built on the first main call, not at import
def _build_parser() -> _Parser:
    parser = _Parser(prog="etacert", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand an eta quotient")
    p_expand.add_argument("--spec", required=True, help="exponents as delta:exp,delta:exp,...")
    p_expand.add_argument("--order", required=True, type=int)
    p_expand.add_argument("--mod", type=int, default=None, help="reduce coefficients mod u")
    p_expand.add_argument("--format", choices=("text", "json"), default="text")
    p_expand.add_argument("--output", default=None)

    p_dissect = sub.add_parser("dissect", help="split an eta quotient by exponent class")
    p_dissect.add_argument("--spec", required=True)
    p_dissect.add_argument("--m", required=True, type=int, help="dissection modulus")
    p_dissect.add_argument("--order", required=True, type=int)
    p_dissect.add_argument("--mod", type=int, default=None)
    p_dissect.add_argument("--format", choices=("text", "json"), default="text")
    p_dissect.add_argument("--output", default=None)

    p_cert = sub.add_parser("certify", help="run one finite check and emit a certificate")
    p_cert.add_argument("--m", required=True, type=int)
    p_cert.add_argument("--M", required=True, type=int)
    p_cert.add_argument("--N", required=True, type=int)
    p_cert.add_argument("--t", required=True, type=int)
    p_cert.add_argument("--r", required=True, help="eta exponents over divisors of M")
    p_cert.add_argument("--rprime", required=True, help="eta exponents over divisors of N")
    p_cert.add_argument("--mod", required=True, type=int, help="congruence modulus u")
    p_cert.add_argument("--check-upto", type=int, default=None,
                        help="scan n beyond floor(v) (over-checking)")
    p_cert.add_argument("--strict", action="store_true",
                        help="do not assume admissibility of the instance tuple")
    p_cert.add_argument("--order-cap", type=int, default=None)
    p_cert.add_argument("--output", default=None)
    p_cert.add_argument("--trace", default=None, metavar="FILE", help=_TRACE_HELP)

    p_thm = sub.add_parser("verify-theorem", help="run a theorem pipeline")
    p_thm.add_argument("id", choices=sorted(_THEOREM_BY_ID))
    p_thm.add_argument("--order", type=int, default=None)
    p_thm.add_argument("--output", default=None)
    p_thm.add_argument("--trace", default=None, metavar="FILE", help=_TRACE_HELP)

    return parser


def _cmd_expand(args) -> int:
    cap = _order_cap_default()
    _check_order(args.order, cap)
    spec = EtaQuotientSpec.from_string(args.spec)
    series = expand_eta_quotient(spec, args.order, modulus=args.mod)
    if args.format == "json":
        payload = {"spec": spec.to_spec_string(), "modulus": args.mod}
        payload.update(series.to_json_dict())
        text = _json_text(payload)
    else:
        text = ",".join(str(c) for c in series.coeffs) + "\n"
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_dissect(args) -> int:
    cap = _order_cap_default()
    _check_order(args.order, cap)
    # one summary line per class: m is bounded by the cap, as the order is
    if not 1 <= args.m <= cap:
        raise ValueError(f"dissection modulus must be in 1..{cap}, got {args.m}")
    _check_modulus(args.mod)  # below, a modulus of 1 would find every class zero
    spec = EtaQuotientSpec.from_string(args.spec)
    series = expand_eta_quotient(spec, args.order)
    # each class is a slice of the coefficients, never held at full length;
    # classes past the order are empty slices
    classes = []
    for i in range(args.m):
        values = series.coeffs[i::args.m]
        support = [n for n, c in enumerate(values) if c]
        entry = {
            "residue": i,
            "nonzero_terms": len(support),
            "first_exponent": args.m * support[0] + i if support else None,
        }
        if args.mod is not None:
            entry["zero_mod"] = not any(c % args.mod for c in values)
        classes.append(entry)
    if args.format == "json":
        payload = {
            "spec": spec.to_spec_string(),
            "m": args.m,
            "order": args.order,
            "modulus": args.mod,
            "classes": classes,
        }
        text = _json_text(payload)
    else:
        lines = []
        for entry in classes:
            line = f"class {entry['residue']}: nonzero={entry['nonzero_terms']}"
            if entry["first_exponent"] is not None:
                line += f" first=q^{entry['first_exponent']}"
            if args.mod is not None:
                line += f" zero_mod_{args.mod}={'yes' if entry['zero_mod'] else 'no'}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_certify(args) -> int:
    cap = args.order_cap if args.order_cap is not None else _order_cap_default()
    instance = RSInstance(
        m=args.m,
        M=args.M,
        N=args.N,
        t=args.t,
        r=EtaQuotientSpec.from_string(args.r, level=args.M),
        r_prime=EtaQuotientSpec.from_string(args.rprime, level=args.N),
        u=args.mod,
    )
    cert = verify_instance(
        instance,
        assume_delta_star=not args.strict,
        check_upto=args.check_upto,
        order_cap=cap,
    )
    _write_output(cert.to_json(), args.output)
    return _STATUS_EXIT[cert.status]


def _cmd_verify_theorem(args) -> int:
    # run_theorem refuses a negative order (ValueError) and any order above the cap
    report = run_theorem(_THEOREM_BY_ID[args.id], args.order, order_cap=_order_cap_default())
    _write_output(_json_text(report.to_json_dict()), args.output)
    if not report.overall:
        failed = [s.name for s in report.steps if not s.passed]
        sys.stderr.write(f"failed steps: {', '.join(failed)}\n")
        return EXIT_STEP_FAILED
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "expand": _cmd_expand,
        "dissect": _cmd_dissect,
        "certify": _cmd_certify,
        "verify-theorem": _cmd_verify_theorem,
    }
    trace = getattr(args, "trace", None)
    written = args.output or "stdout"
    try:
        # the counters are written beside the output, never into it
        with tracing() if trace else contextlib.nullcontext() as counters:
            code = handlers[args.command](args)
        if trace:
            written = trace
            _write_output(json.dumps(counters, sort_keys=True) + "\n", trace)
        return code
    except OrderCapExceeded as exc:
        sys.stderr.write(f"etacert: {exc}\n")
        return EXIT_ORDER_CAP
    except ValueError as exc:  # a ParseError is a ValueError
        sys.stderr.write(f"etacert: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:  # an unwritable output is a usage error, not a failed step
        sys.stderr.write(f"etacert: cannot write {written}: {exc.strerror or exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
