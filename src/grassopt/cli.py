"""Command-line interface: ``check``, ``train``, and ``compare``.

Exit codes: 0 on success, 1 for property or validation failures (including
bad configs), 2 for runtime aborts (non-finite loss). Every config key can be
supplied as ``--<key> <value>``; flag values override file values.
"""

import argparse
import sys

from . import checks
from .config import SCHEMA
from .config import load_config
from .errors import ConfigError, GrassoptError, NumericalError
from .optim import OPTIMIZERS
from .runner import run_compare, run_training

__all__ = ["main"]


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for section, keys in SCHEMA.items():
        for key in keys:
            parser.add_argument(f"--{key}", dest=f"cfg_{key}", metavar="VALUE",
                                help=f"override [{section}] {key}")


def _collect_overrides(args) -> dict:
    overrides = {}
    for name, value in vars(args).items():
        if name.startswith("cfg_") and value is not None:
            overrides[name[4:]] = value
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassopt",
        description="Riemannian optimization on G(1,n) for batch-normalized networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the manifold/regularizer/gradcheck property suites")
    p_check.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="train a network per a config file")
    p_train.add_argument("--config", default=None, help="INI config path")
    _add_config_flags(p_train)

    p_compare = sub.add_parser("compare", help="compare optimizers over a shared seed set")
    p_compare.add_argument("--config", default=None, help="INI config path")
    p_compare.add_argument("--optimizers", required=True,
                           help=f"comma-separated subset of {','.join(OPTIMIZERS)}")
    p_compare.add_argument("--runs", type=int, default=5)
    _add_config_flags(p_compare)
    return parser


def cmd_check(args) -> int:
    results = checks.run_all(seed=args.seed)
    print(checks.format_report(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_train(args) -> int:
    cfg = load_config(args.config, _collect_overrides(args))
    records, paths = run_training(cfg)
    final = records[-1]
    print(f"wrote {paths['metrics']} and {paths['checkpoint']}")
    print(f"final: epoch={final.epoch} train_acc={final.train_acc:.4f} "
          f"test_acc={final.test_acc:.4f} ortho={final.ortho_loss_total:.3e}")
    return 0


def cmd_compare(args) -> int:
    names = [n.strip() for n in args.optimizers.split(",") if n.strip()]
    if not names:
        raise ConfigError("compare needs at least one optimizer name")
    unknown = [n for n in names if n not in OPTIMIZERS]
    if unknown:
        raise ConfigError(f"unknown optimizer name {unknown[0]!r}")
    summary, _ = run_compare(args.config, _collect_overrides(args), names, runs=args.runs)
    print(summary, end="")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": cmd_check, "train": cmd_train, "compare": cmd_compare}
    try:
        return handlers[args.command](args)
    except NumericalError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2
    except GrassoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
