"""Batch command-line interface.

Subcommands:
  synth    generate a synthetic regime-switching price CSV
  prepare  turn a price CSV into per-ticker windowed dataset caches
  run      grid-search embeddings x readouts over prepared caches

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal error.
Each command writes a manifest listing input and artifact hashes so a
run can be replayed and verified: synth to `<out>.manifest.json` beside
its CSV, prepare and run to `manifest.json` in their output directory,
which they hold locked (_output_lock) while they write it.  Every file
is put in place by pipeline.replacing, and _manifest alone owns the
manifest's rule: it removes the old manifest before the command writes
anything and writes the new one last, so a manifest exists only once
its command has finished; run reads only a --data directory that has
one, and prepare writes into no --out that holds another ticker's
dataset.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import fcntl
import hashlib
import json
import logging
import math
import os
import sys

from . import __version__
from .errors import (
    ConfigError,
    IngestionError,
    InputShapeError,
    InsufficientDataError,
    QrcvolError,
)
from . import harness, pipeline
from .embeddings import KINDS

log = logging.getLogger("qrcvol")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3

DATASET_SUFFIX = ".dataset.npz"


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _manifest(path, command, args_dict, inputs, **fields):
    """The one owner of a manifest: removes the one at path, yields the
    list of artifacts that the block fills, and writes the manifest at
    path once the block finishes, so a manifest exists only once its
    command has finished.  fields (seed, skipped, ...) are top-level keys."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    artifacts = []
    yield artifacts
    manifest = {
        "tool": "qrcvol",
        "version": __version__,
        "command": command,
        "args": args_dict,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "artifacts": {str(p): _sha256(p) for p in artifacts},
        **fields,
    }
    with pipeline.replacing(path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _output_lock(out_dir):
    """Guards an output directory against concurrent runs.

    A POSIX flock on `.qrcvol.lock`: the kernel releases it when the
    holder exits, however it exits.  The file stays, since a run that
    removed it could let two later runs lock two different files.
    """
    path = os.path.join(str(out_dir), ".qrcvol.lock")
    fd = os.open(path, os.O_CREAT | os.O_WRONLY, 0o666)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise IngestionError(f"output directory is locked by another run ({path})") from None
        yield
    finally:
        os.close(fd)


def cmd_synth(args) -> int:
    if not pipeline.plain_ticker(args.ticker):
        raise ConfigError(f"ticker {args.ticker!r} cannot name a file or CSV field")
    regimes = harness.parse_regime_spec(args.regimes)
    series = harness.synth_regime_series(
        regimes, seed=args.seed, ticker=args.ticker, start_price=args.start_price
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with _manifest(f"{args.out}.manifest.json", "synth",
                   {"regimes": args.regimes, "seed": args.seed, "ticker": args.ticker,
                    "start_price": args.start_price, "out": args.out},
                   inputs=[], seed=args.seed) as artifacts:
        pipeline.write_csv(args.out, ["date", "ticker", "adj_close"],
                           ([date, series.ticker, f"{price:.17g}"]
                            for date, price in zip(series.dates, series.prices)))
        artifacts.append(args.out)
    print(f"wrote {len(series.prices)} price rows to {args.out}")
    return EXIT_OK


def cmd_prepare(args) -> int:
    if not math.isfinite(args.lam):
        raise ConfigError(f"--lambda must be a finite number, got {args.lam}")
    for flag, value, least in (("--window", args.window, 2), ("--stride", args.stride, 1)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    tickers = None if args.tickers is None else [t.strip() for t in args.tickers.split(",")]
    for pos, ticker in enumerate(tickers or (), start=1):
        if not pipeline.plain_ticker(ticker):
            raise ConfigError(f"--tickers entry {pos} ({ticker!r}) cannot name a file or CSV field")
    if not os.path.exists(args.prices):
        raise IngestionError(f"price file not found: {args.prices}")
    series = pipeline.load_prices(args.prices, tickers=tickers)
    datasets = []
    skipped = {}
    # a requested ticker without a usable row is skipped, not dropped
    for ticker in sorted(set(tickers or ()) - {p.ticker for p in series}):
        skipped[ticker] = f"ticker {ticker}: no usable row in {args.prices}"
        log.warning("ticker %s skipped: %s", ticker, skipped[ticker])
    for p in series:
        try:
            datasets.append(pipeline.prepare_dataset(p, w=args.window, lam=args.lam, stride=args.stride))
        except (InsufficientDataError, InputShapeError) as exc:
            skipped[p.ticker] = str(exc)
            log.warning("ticker %s skipped: %s", p.ticker, exc)
    # a rejected command leaves no --out behind
    if not datasets:
        raise InsufficientDataError("no ticker produced a dataset: " + "; ".join(skipped.values()))
    # a dataset left in --out would be run beside the new ones, under a manifest that omits it
    written = {f"{ds.ticker}{DATASET_SUFFIX}" for ds in datasets}
    stale = sorted(name for name in (os.listdir(args.out) if os.path.isdir(args.out) else ())
                   if name.endswith(DATASET_SUFFIX) and name not in written)
    if stale:
        raise ConfigError(f"{args.out} holds datasets of tickers this prepare does not write: "
                          f"{', '.join(stale)}; remove them or choose another --out")
    os.makedirs(args.out, exist_ok=True)
    with _output_lock(args.out), _manifest(
            os.path.join(args.out, "manifest.json"), "prepare",
            {"prices": args.prices, "window": args.window, "lambda": args.lam,
             "stride": args.stride, "tickers": args.tickers},
            inputs=[args.prices], skipped=skipped) as artifacts:
        for ds in datasets:
            path = os.path.join(args.out, f"{ds.ticker}{DATASET_SUFFIX}")
            pipeline.write_dataset(ds, path)
            artifacts.append(path)
    print(f"prepared {len(artifacts)} ticker dataset(s) in {args.out}")
    for ticker, reason in sorted(skipped.items()):
        print(f"skipped {ticker}: {reason}")
    return EXIT_OK


def cmd_run(args) -> int:
    if os.path.realpath(args.out) == os.path.realpath(args.data):
        raise ConfigError(f"--out {args.out} is the --data directory {args.data}: choose another --out")
    grid = harness.load_grid_config(args.config)
    if args.embeddings is not None:  # "" is an empty filter, not no filter
        wanted = {kind.strip() for kind in args.embeddings.split(",")}
        unknown = wanted - set(KINDS)
        if unknown:
            raise ConfigError(f"unknown embedding kinds in filter: {sorted(unknown)}")
        kept = [t for t in grid.embeddings if t["kind"] in wanted]
        if not kept:
            raise ConfigError("embedding filter removed every template")
        grid = dataclasses.replace(grid, embeddings=kept)
    if not os.path.isdir(args.data):
        raise IngestionError(f"data directory not found: {args.data}")
    dataset_paths = sorted(
        os.path.join(args.data, name)
        for name in os.listdir(args.data)
        if name.endswith(DATASET_SUFFIX)
    )
    if not dataset_paths:
        raise IngestionError(f"no *{DATASET_SUFFIX} files in {args.data}")
    if not os.path.isfile(os.path.join(args.data, "manifest.json")):
        raise IngestionError(f"{args.data} has no manifest.json: its prepare did not finish, run it again")
    datasets = {}
    sources = {}  # ticker -> the file holding it
    for path in dataset_paths:
        ds = pipeline.read_dataset(path)
        if ds.ticker in sources:
            raise IngestionError(f"{sources[ds.ticker]} and {path} both hold ticker {ds.ticker}")
        datasets[ds.ticker], sources[ds.ticker] = ds, path
    harness.preflight(datasets, grid)  # a rejected run leaves no --out behind
    os.makedirs(args.out, exist_ok=True)
    params = {key: sorted({getattr(ds, attr) for ds in datasets.values()})
              for key, attr in (("window", "w"), ("lambda", "lam"), ("stride", "stride"))}
    with _output_lock(args.out), _manifest(
            os.path.join(args.out, "manifest.json"), "run",
            {"data": args.data, "config": args.config, "embeddings": args.embeddings},
            inputs=[args.config] + dataset_paths, **params) as artifacts:
        report = harness.run_grid(datasets, grid, os.path.join(args.out, "cache"))
        paths = harness.emit_report(report, args.out)
        artifacts += sorted(paths.values())
    print(f"evaluated {len(report.cells)} grid cell(s) over {len(datasets)} ticker(s)")
    print("cache: " + " and ".join(f"{reused} of {reused + recomputed} {name}"
                                   for name, (reused, recomputed) in report.cache_counts.items())
          + " reused")
    print(f"report written to {paths['text']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrcvol",
        description="Volatility regime detection with quantum/classical reservoir embeddings",
    )
    parser.add_argument("--version", action="version", version=f"qrcvol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic price CSV")
    p_synth.add_argument("--regimes", required=True,
                         help="schedule as len:sigma[,len:sigma]*")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--ticker", default="SYNTH")
    p_synth.add_argument("--start-price", type=float, default=100.0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_prep = sub.add_parser("prepare", help="build windowed dataset caches")
    p_prep.add_argument("--prices", required=True)
    p_prep.add_argument("--out", required=True)
    p_prep.add_argument("--window", type=int, default=9)
    p_prep.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_prep.add_argument("--stride", type=int, default=1)
    p_prep.add_argument("--tickers", default=None, help="comma-separated filter")
    p_prep.set_defaults(func=cmd_prepare)

    p_run = sub.add_parser("run", help="run the embedding/readout grid")
    p_run.add_argument("--data", required=True, help="directory from `prepare`")
    p_run.add_argument("--config", required=True, help="JSON grid config")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--embeddings", default=None,
                       help="comma-separated kind filter, e.g. raw,quantum")
    p_run.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputShapeError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QrcvolError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
