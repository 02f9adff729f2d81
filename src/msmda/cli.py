"""Command-line entry point.

Subcommands: train, baseline, ablate, gen-synth, dump-features, verify.
Exit codes: 0 success, 1 validation error, 2 verification failure,
3 data error (including an output that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .data import (
    NormalizationSpec,
    SynthConfig,
    generate_synthetic,
    save_dataset_grid,
)
from .errors import DataError, ValidationError
from .harness import (
    ExperimentConfig,
    dump_features,
    run_ablation,
    run_baseline_source_combine,
    run_experiment,
    verify,
)
from .losses import KernelSpec
from .model import ModelConfig, TrainConfig

NORM_FLAG_TO_KIND = {
    "none": "none",
    "electrode": "electrode_wise",
    "sample": "sample_wise",
    "global": "global_wise",
}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from None


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", metavar="DIR", help="dataset root (session<k>/subject<j>.csv)")
    p.add_argument("--synth", metavar="JSON", help="synthetic generator config file")
    p.add_argument("--scenario", choices=["cross-subject", "cross-session"],
                   default="cross-subject")
    p.add_argument("--norm", choices=sorted(NORM_FLAG_TO_KIND), default="electrode")
    p.add_argument("--order", choices=["A", "B"], default="A")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=0.01,
                   help="discrepancy weight as a ratio of the mmd ramp")
    p.add_argument("--beta-absolute", action="store_true",
                   help="treat --beta as a raw coefficient instead of a ratio")
    p.add_argument("--disc-start", type=float, default=0.0, metavar="FRACTION",
                   help="fraction of the run after which the discrepancy loss starts")
    p.add_argument("--seeds", default="0", metavar="S0,S1,...")
    p.add_argument("--out", metavar="DIR", help="output directory for metrics and checkpoints")
    p.add_argument("--loso", action="store_true",
                   help="full leave-one-subject-out variant of cross-subject")
    p.add_argument("--cfe-dims", default="256,128,64", metavar="D1,D2,D3",
                   help="hidden widths of the common extractor")
    p.add_argument("--dsfe-dim", type=int, default=32)
    p.add_argument("--iters", type=int, default=None,
                   help="iterations per epoch (default: ceil(max source size / batch))")
    p.add_argument("--kernel", choices=["multiscale", "fixed", "linear"], default="multiscale")
    p.add_argument("--quiet", action="store_true")


def _load_synth(path: str) -> SynthConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read synth config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"malformed synth config {path}: {exc}") from exc
    try:
        return SynthConfig(**raw)
    except TypeError as exc:
        raise ValidationError(f"bad synth config field: {exc}") from exc


def _experiment_config(args) -> ExperimentConfig:
    if (args.data is None) == (args.synth is None):
        raise ValidationError("specify exactly one of --data and --synth")
    synth = _load_synth(args.synth) if args.synth else None
    train = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        beta_weight=args.beta,
        beta_absolute=args.beta_absolute,
        disc_start_fraction=args.disc_start,
        iterations_per_epoch=args.iters,
    )
    model = ModelConfig(
        num_branches=1,
        cfe_dims=_parse_int_list(args.cfe_dims),
        dsfe_dim=args.dsfe_dim,
    )
    kernel = {
        "multiscale": KernelSpec(kind="rbf_multiscale"),
        "fixed": KernelSpec(kind="rbf_fixed"),
        "linear": KernelSpec(kind="linear"),
    }[args.kernel]
    return ExperimentConfig(
        scenario=args.scenario.replace("-", "_"),
        data_root=args.data,
        synth=synth,
        norm=NormalizationSpec(kind=NORM_FLAG_TO_KIND[args.norm], order=args.order),
        model=model,
        train=train,
        kernel=kernel,
        seeds=_parse_int_list(args.seeds),
        loso=args.loso,
        out_dir=args.out,
    )


def _print_summary(summary: dict, quiet: bool) -> None:
    if quiet:
        return
    for entry in summary["per_seed"]:
        if entry.get("num_folds"):
            print(
                f"seed {entry['seed']}: final {entry['final_mean']:.4f} "
                f"+/- {entry['final_std']:.4f} over {entry['num_folds']} folds "
                f"(best-epoch {entry['best_mean']:.4f})"
            )
    if "final_mean" in summary:
        print(
            f"{summary['method']} {summary['scenario']}: "
            f"final {summary['final_mean']:.4f} +/- {summary['final_std']:.4f} "
            f"across {len(summary['seeds'])} seeds"
        )
    for aborted in summary["aborted_folds"]:
        print(f"aborted: fold {aborted['fold_id']} seed {aborted['seed']} (non-finite loss)")


def _cmd_run(args) -> int:
    config = _experiment_config(args)
    log = None if args.quiet else print
    if args.command == "train":
        summary = run_experiment(config, log=log)
    elif args.command == "baseline":
        summary = run_baseline_source_combine(config, log=log)
    else:
        mode = {"mmd": "no_mmd", "disc": "no_disc", "both": "no_both"}[args.ablate]
        summary = run_ablation(config, mode, log=log)
    _print_summary(summary, args.quiet)
    return 0


def _cmd_gen_synth(args) -> int:
    synth = _load_synth(args.synth) if args.synth else SynthConfig()
    try:
        sessions_s, subjects_s = args.grid.split("x")
        sessions, subjects = int(sessions_s), int(subjects_s)
    except ValueError:
        raise ValidationError(f"--grid must look like 3x15, got {args.grid!r}") from None
    if sessions < 1 or subjects < 1:
        raise ValidationError("--grid dimensions must be >= 1")
    domains = generate_synthetic(replace(synth, num_domains=sessions * subjects))
    grid = {}
    for idx, domain in enumerate(domains):
        k, j = divmod(idx, subjects)
        grid[(k + 1, j + 1)] = replace(domain, domain_id=(k + 1, j + 1))
    save_dataset_grid(grid, args.out)
    if not args.quiet:
        print(f"wrote {len(grid)} domains under {args.out}")
    return 0


def _cmd_dump_features(args) -> int:
    config = _experiment_config(args)
    paths = dump_features(
        config, args.checkpoint, args.out or "features",
        samples_per_domain=args.samples, fold_index=args.fold,
    )
    if not args.quiet:
        for path in paths:
            print(path)
    return 0


def _cmd_verify(args) -> int:
    report = verify(args.suite)
    print(report.describe())
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msmda",
        description="Multi-source marginal distribution adaptation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("train", "train the multi-branch model over all folds"),
        ("baseline", "source-combine single-branch baseline"),
        ("ablate", "train with loss terms switched off"),
    ):
        p_run = sub.add_parser(name, help=help_text)
        _add_shared_flags(p_run)
        if name == "ablate":
            p_run.add_argument("--ablate", choices=["mmd", "disc", "both"], required=True)
        p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-synth", help="write a synthetic dataset grid as CSV")
    p_gen.add_argument("--synth", metavar="JSON", help="generator config file")
    p_gen.add_argument("--grid", default="3x15", metavar="KxJ")
    p_gen.add_argument("--out", required=True, metavar="DIR")
    p_gen.add_argument("--quiet", action="store_true")
    p_gen.set_defaults(func=_cmd_gen_synth)

    p_dump = sub.add_parser("dump-features", help="export branch features for plotting")
    _add_shared_flags(p_dump)
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--samples", type=int, default=100)
    p_dump.add_argument("--fold", type=int, default=0)
    p_dump.set_defaults(func=_cmd_dump_features)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("suite", nargs="?", default="all",
                          choices=["grad", "mmd_oracle", "norm", "schedule", "all"])
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; fold into our codes
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (DataError, OSError) as exc:  # an OSError here is from writing outputs
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
