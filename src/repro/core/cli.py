"""Command-line interface: the paper workflow from the shell.

``python -m repro`` exposes subcommands built on :mod:`repro.api`:

* ``train``    — build the design suite, pre-train + fine-tune, save one
  full-pipeline artifact (:meth:`CircuitGPSPipeline.save`); accepts a
  declarative :class:`repro.api.ExperimentSpec` JSON file via ``--spec``,
* ``annotate`` — load an artifact and annotate one-or-many SPICE netlists
  with predicted couplings (:class:`~repro.core.serve.AnnotationEngine`);
  with ``--remote URL`` the netlists are sent to a running ``serve`` daemon
  instead of loading the artifact locally; ``--shards N`` splits each
  (chip-scale) netlist into memory-bounded shards annotated independently,
* ``reannotate`` — replay an ECO-style netlist change against a previous
  ``annotate --json`` report, re-scoring only the affected pairs
  (:meth:`~repro.core.serve.AnnotationEngine.reannotate`),
* ``serve``    — keep a loaded artifact resident behind a JSON-over-HTTP
  annotation daemon that micro-batches links across concurrent requests
  (:mod:`repro.core.server`),
* ``evaluate`` — zero-shot link / regression metrics of a saved artifact on
  the bundled test designs,
* ``report``   — render annotation JSON or ``benchmarks/results`` JSON files
  as plain-text tables,
* ``components`` — list every registered backbone / attention kernel / head /
  encoding / sampler / task / lint rule (the plugin surface of
  :mod:`repro.api`),
* ``lint``     — run the registered static-analysis rules
  (:mod:`repro.analysis.lint`) over python sources and exit 1 on findings
  not grandfathered by the committed baseline.

``annotate`` accepts ``--precision float32`` for reduced-precision serving.

Every command works against saved artifacts, so training once and serving
many times needs no Python session::

    python -m repro train --config fast --out ckpt/
    python -m repro annotate ckpt/ my_netlist.sp --json report.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..analysis.reporting import format_table
from ..utils.logging import get_logger
from ..utils.serialization import CheckpointError, load_json, save_json
from .config import ExperimentConfig
from .pipeline import CircuitGPSPipeline
from .serve import DEFAULT_MAX_CANDIDATES
from .server import ServerConfig

__all__ = ["build_parser", "main"]

logger = get_logger("repro.cli")

CONFIG_PRESETS = {
    "fast": ExperimentConfig.fast,
    "default": ExperimentConfig.default,
    "benchmark": ExperimentConfig.benchmark,
}
REGRESSION_TASKS = ("edge_regression", "node_regression")


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CircuitGPS reproduction: train, save and serve parasitic "
                    "coupling predictors for AMS netlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the pipeline and save one artifact")
    train.add_argument("--config", default="fast", choices=sorted(CONFIG_PRESETS),
                       help="configuration preset (default: fast)")
    train.add_argument("--spec", default=None, metavar="SPEC.json",
                       help="declarative ExperimentSpec JSON file; overrides "
                            "--config/--tasks/--mode (CLI flags below still "
                            "apply on top)")
    train.add_argument("--out", required=True,
                       help="artifact destination: a directory (pipeline.npz is "
                            "written inside) or a .npz path")
    train.add_argument("--designs", nargs="*", default=None,
                       help="subset of paper designs to build (default: all six)")
    train.add_argument("--tasks", nargs="*", default=None,
                       help="tasks to fine-tune (any registered task name; see "
                            "'components'; default: edge_regression)")
    train.add_argument("--mode", default=None, choices=("scratch", "head", "all"),
                       help="fine-tuning mode (default: all, or the --spec's mode)")
    train.add_argument("--epochs", type=int, default=None, help="override training epochs")
    train.add_argument("--scale", type=float, default=None, help="override design scale")
    train.add_argument("--max-links", type=int, default=None,
                       help="override max links sampled per design")
    train.add_argument("--seed", type=int, default=None, help="override the training seed")
    train.add_argument("--dim", type=int, default=None, help="override model width")
    train.add_argument("--layers", type=int, default=None, help="override GPS layer count")
    train.add_argument("--attention", default=None,
                       choices=("transformer", "performer", "none"),
                       help="override the attention flavour")
    train.add_argument("--sampling", default=None, metavar="SPEC",
                       help="sampling pipeline for dataset construction: a "
                            "registered sampler name (see 'components "
                            "--family samplers'), inline JSON (a stage-entry "
                            "list), or a JSON file path; default: the task's "
                            "own pipeline / the paper's recipe")
    train.add_argument("--verbose", action="store_true", help="log per-epoch metrics")

    annotate = sub.add_parser("annotate",
                              help="annotate SPICE netlists using a saved artifact")
    annotate.add_argument("checkpoint", help="artifact path (directory or .npz)")
    annotate.add_argument("netlists", nargs="+", help="SPICE netlist file(s)")
    annotate.add_argument("--pairs", action="append", default=None, metavar="A,B",
                          help="explicit candidate pair (repeatable); default: "
                               "auto-generated signal-net pairs")
    annotate.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES,
                          help="cap on auto-generated candidate pairs (default: %(default)s)")
    annotate.add_argument("--batch-size", type=int, default=256,
                          help="inference batch size (default: 256)")
    annotate.add_argument("--threshold", type=float, default=0.5,
                          help="coupling probability threshold (default: 0.5)")
    annotate.add_argument("--json", default=None, metavar="PATH",
                          help="write the structured report(s) as JSON")
    annotate.add_argument("--annotated-out", default=None, metavar="DIR",
                          help="write annotated netlists (<name>.annotated.sp) here")
    annotate.add_argument("--workers", type=int, default=0,
                          help="worker processes sharding the netlists, or one "
                               "netlist's candidate chunks (0 = serial, -1 = auto, "
                               "default: serial; reports are identical for any "
                               "worker count)")
    annotate.add_argument("--shards", type=int, default=None, metavar="N",
                          help="split each netlist into N bounded shards "
                               "(hierarchy-aware when the netlist has subckt "
                               "instances) and annotate them independently; "
                               "bounds peak memory by the largest shard "
                               "instead of the full flat design")
    annotate.add_argument("--halo", type=int, default=None, metavar="HOPS",
                          help="shard halo depth (flat partitions: node hops; "
                               "hierarchical partitions: cell rings); default: "
                               "the minimum that keeps enclosing subgraphs "
                               "complete")
    annotate.add_argument("--seed", type=int, default=0, help="candidate sampling seed")
    annotate.add_argument("--precision", default="float64",
                          choices=("float64", "float32"),
                          help="serving precision; float32 halves memory "
                               "traffic at <=1e-4 AUC drift (default: float64)")
    annotate.add_argument("--remote", default=None, metavar="URL",
                          help="send the netlists to a running 'repro serve' "
                               "daemon at URL instead of loading the artifact "
                               "locally; the CHECKPOINT argument is treated "
                               "as the first netlist (or pass '-')")

    reannotate = sub.add_parser(
        "reannotate",
        help="incrementally re-annotate a changed netlist from a previous report")
    reannotate.add_argument("checkpoint", help="artifact path (directory or .npz)")
    reannotate.add_argument("old_netlist", help="SPICE netlist the previous report "
                                                "was produced from")
    reannotate.add_argument("new_netlist", help="SPICE netlist after the ECO change")
    reannotate.add_argument("--prev", required=True, metavar="REPORT.json",
                            help="previous annotation report (from "
                                 "'annotate --json') to carry records over from")
    reannotate.add_argument("--batch-size", type=int, default=256,
                            help="inference batch size (default: 256)")
    reannotate.add_argument("--threshold", type=float, default=0.5,
                            help="coupling probability threshold (default: 0.5)")
    reannotate.add_argument("--json", default=None, metavar="PATH",
                            help="write the updated report as JSON")
    reannotate.add_argument("--seed", type=int, default=0,
                            help="seed for re-scored pairs (default: 0)")
    reannotate.add_argument("--precision", default="float64",
                            choices=("float64", "float32"),
                            help="serving precision (default: float64)")

    serve = sub.add_parser(
        "serve", help="run the persistent annotation service for an artifact")
    serve.add_argument("checkpoint", help="artifact path (directory or .npz)")
    serve_defaults = ServerConfig()
    serve.add_argument("--host", default=serve_defaults.host,
                       help=f"bind address (default: {serve_defaults.host})")
    serve.add_argument("--port", type=int, default=serve_defaults.port,
                       help="bind port; 0 picks a free one "
                            f"(default: {serve_defaults.port})")
    serve.add_argument("--precision", default="float64",
                       choices=("float64", "float32"),
                       help="serving precision (default: float64)")
    serve.add_argument("--max-batch", type=int, default=serve_defaults.max_batch,
                       help="at most this many pending links share one batch "
                            f"(default: {serve_defaults.max_batch})")
    serve.add_argument("--batch-size", type=int, default=256,
                       help="engine chunk size for grouping-sensitive "
                            "extraction (default: 256)")
    serve.add_argument("--threshold", type=float, default=0.5,
                       help="coupling probability threshold (default: 0.5)")
    serve.add_argument("--request-timeout", type=float,
                       default=serve_defaults.request_timeout_s,
                       help="per-request wall-clock budget in seconds before "
                            f"a 504 (default: {serve_defaults.request_timeout_s:g})")

    evaluate = sub.add_parser("evaluate",
                              help="zero-shot metrics of a saved artifact on test designs")
    evaluate.add_argument("checkpoint", help="artifact path (directory or .npz)")
    evaluate.add_argument("--designs", nargs="*", default=None,
                          help="designs to evaluate (default: the bundled test split)")
    evaluate.add_argument("--task", default="edge_regression", choices=REGRESSION_TASKS)
    evaluate.add_argument("--mode", default="all", choices=("scratch", "head", "all"))
    evaluate.add_argument("--scale", type=float, default=None, help="override design scale")
    evaluate.add_argument("--json", default=None, metavar="PATH",
                          help="write the metric rows as JSON")

    report = sub.add_parser("report", help="render result JSON files as tables")
    report.add_argument("path", nargs="?", default="benchmarks/results",
                        help="an annotation JSON, a results JSON, or a directory "
                             "of them (default: benchmarks/results)")

    components = sub.add_parser(
        "components", help="list the registered pluggable components")
    components.add_argument("--family", default=None,
                            help="restrict to one registry (e.g. backbones, tasks)")
    components.add_argument("--json", default=None, metavar="PATH",
                            help="write the component listing as JSON")

    lint = sub.add_parser(
        "lint", help="statically check python sources against the repo's "
                     "determinism/dtype/fork-safety contracts")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="diagnostic format (default: text)")
    lint.add_argument("--rules", default=None, metavar="NAMES",
                      help="comma-separated subset of rule names to run "
                           "(see 'components --family lint_rules'; "
                           "default: all)")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline JSON of grandfathered findings; only "
                           "findings not in it fail the run")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite --baseline with the current findings "
                           "and exit 0")
    return parser


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #
def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    train_overrides = {}
    if args.epochs is not None:
        train_overrides["epochs"] = args.epochs
    if args.seed is not None:
        train_overrides["seed"] = args.seed
    if train_overrides:
        config = config.with_train(**train_overrides)
    data_overrides = {}
    if args.scale is not None:
        data_overrides["scale"] = args.scale
    if getattr(args, "max_links", None) is not None:
        data_overrides["max_links_per_design"] = args.max_links
    if args.seed is not None:
        data_overrides["seed"] = args.seed
    if data_overrides:
        config = config.with_data(**data_overrides)
    model_overrides = {}
    if getattr(args, "dim", None) is not None:
        model_overrides["dim"] = args.dim
    if getattr(args, "layers", None) is not None:
        model_overrides["num_layers"] = args.layers
    if getattr(args, "attention", None) is not None:
        model_overrides["attention"] = args.attention
    if model_overrides:
        config = config.with_model(**model_overrides)
    return config


def _parse_sampling(raw: str | None):
    """The validated sampling spec behind ``--sampling``.

    Accepts a registered sampler name, inline JSON (a stage-entry list or a
    single stage dict), or a path to a JSON file holding either; returns the
    canonical form from
    :func:`repro.graph.datapipe.normalize_sampling_spec` (``None`` when the
    flag was not given).
    """
    import json

    from ..graph.datapipe import normalize_sampling_spec

    if raw is None:
        return None
    text = raw.strip()
    if text.startswith("[") or text.startswith("{"):
        value = json.loads(text)
    elif pathlib.Path(raw).is_file():
        value = load_json(raw)
    else:
        value = raw  # a registered sampler name; validated below
    return normalize_sampling_spec(value)


def cmd_train(args) -> int:
    from ..api.spec import ExperimentSpec

    if args.spec:
        spec = ExperimentSpec.from_json(args.spec)
        config = _apply_overrides(spec.to_config(), args)
        tasks = args.tasks if args.tasks else [spec.task]
        mode = args.mode if args.mode is not None else spec.mode
        # CLI model flags take precedence over the spec's backbone kwargs
        # (build_model merges the backbone spec over the config, so the
        # overrides must land in the spec too).
        backbone = dict(spec.backbone)
        for key, field in (("dim", "dim"), ("layers", "num_layers"),
                           ("attention", "attention")):
            value = getattr(args, key, None)
            if value is not None:
                backbone[field] = value
        pretrain = spec.pretrain
    else:
        config = _apply_overrides(CONFIG_PRESETS[args.config](), args)
        tasks = args.tasks if args.tasks else ["edge_regression"]
        mode = args.mode if args.mode is not None else "all"
        backbone = None
        pretrain = True
    sampling = _parse_sampling(args.sampling)
    if sampling is None and args.spec:
        sampling = spec.sampling
    if not pretrain:
        # "pretrain": false means the task model must not adapt a meta-learner
        # (same training as repro.api.fit: a scratch fine-tune).  The link
        # model is still pre-trained because the saved artifact needs one to
        # serve coupling probabilities (AnnotationEngine).
        mode = "scratch"
    pipeline = CircuitGPSPipeline(config, backbone=backbone)
    print(f"Building the design suite (scale={config.data.scale}) ...")
    pipeline.load_designs(names=args.designs)
    print(f"Pre-training on {len(pipeline.train_designs)} training design(s) ...")
    result = pipeline.pretrain(verbose=args.verbose, sampling=sampling)
    metrics = {k: round(v, 4) for k, v in result.val_metrics.items()}
    print(f"  link-prediction validation metrics: {metrics}")
    for task in tasks:
        name = task["type"] if isinstance(task, dict) else task
        if sampling is not None:
            # Tasks carrying their own pipeline keep it; --sampling fills the rest.
            task = {"type": task} if isinstance(task, str) else dict(task)
            task.setdefault("sampling", sampling)
        print(f"Fine-tuning ({name}, mode={mode}) ...")
        pipeline.finetune(mode=mode, task=task, verbose=args.verbose)
    path = pipeline.save(args.out)
    print(f"Saved full-pipeline artifact to {path}")
    return 0


def _annotation_row(record: dict) -> dict:
    """One printable table row for an annotation record (dict or JSON form)."""
    return {
        "node_a": record["pair"][0],
        "node_b": record["pair"][1],
        "type": record.get("link_type", "?"),
        "probability": record["coupling_probability"],
        "capacitance_fF": record["capacitance_farad"] * 1e15,
    }


def _parse_pairs(raw: list[str] | None) -> list[tuple[str, str]] | None:
    if raw is None:
        return None
    pairs = []
    for item in raw:
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 2 or not all(parts):
            raise SystemExit(f"--pairs expects 'NODE_A,NODE_B', got {item!r}")
        pairs.append((parts[0], parts[1]))
    return pairs


def _print_annotation(annotation) -> None:
    """Print one :class:`NetlistAnnotation` as a table."""
    rows = [_annotation_row(r) for r in annotation.records]
    print(format_table(
        rows,
        title=f"{annotation.design}: {len(annotation.couplings)} predicted "
              f"coupling(s) out of {annotation.num_candidates} candidates "
              f"({annotation.elapsed_seconds * 1e3:.0f} ms)",
    ))
    print()


def _write_annotated(netlist: str, annotation, out_dir: str) -> None:
    """Write the annotated netlist for one design under ``out_dir``."""
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    out_path = directory / f"{pathlib.Path(netlist).stem}.annotated.sp"
    out_path.write_text(annotation.annotated_spice())
    print(f"Wrote annotated netlist to {out_path}")


def _print_report_payload(payload: dict) -> None:
    """Print one wire-format annotation report (the ``--remote`` path)."""
    rows = [_annotation_row(record) for record in payload["records"]]
    print(format_table(
        rows,
        title=f"{payload['design']}: {payload['num_predicted_couplings']} "
              f"predicted coupling(s) out of {payload['num_candidates']} "
              "candidates",
    ))
    print()


def _cmd_annotate_remote(args, pairs) -> int:
    """``annotate --remote URL``: annotate via a running serve daemon."""
    from .server.client import ServeClient, ServeError

    if args.annotated_out:
        print("error: --annotated-out is not supported with --remote "
              "(the daemon returns reports, not netlists)", file=sys.stderr)
        return 2
    # With --remote there is no artifact to load; the checkpoint slot holds
    # the first netlist ('-' keeps positional compatibility).
    netlists = ([] if args.checkpoint == "-" else [args.checkpoint])
    netlists += args.netlists
    designs = []
    for netlist in netlists:
        path = pathlib.Path(netlist)
        design = {"spice": path.read_text(), "name": path.stem}
        if pairs is not None:
            design["pairs"] = [list(pair) for pair in pairs]
        else:
            design["max_candidates"] = args.max_candidates
        designs.append(design)
    failed = []

    def _on_result(report: dict) -> None:
        if report.get("status") == "error":
            failed.append(report)
            error = report.get("error", {})
            print(f"error: {report.get('design', '?')}: "
                  f"{error.get('message', error)}", file=sys.stderr)
        else:
            _print_report_payload(report)

    client = ServeClient(args.remote)
    try:
        reports = client.annotate_many(designs, seed=args.seed,
                                       threshold=args.threshold,
                                       stream=True, on_result=_on_result)
    except (ServeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        save_json(args.json, payload)
        print(f"Wrote JSON report to {args.json}")
    return 2 if failed else 0


def cmd_annotate(args) -> int:
    from .parallel import default_worker_count
    from .serve import AnnotationEngine

    pairs = _parse_pairs(args.pairs)
    if args.remote:
        if args.shards is not None:
            print("error: --shards is not supported with --remote (sharding "
                  "happens inside the local engine)", file=sys.stderr)
            return 2
        return _cmd_annotate_remote(args, pairs)
    workers = default_worker_count() if args.workers < 0 else args.workers
    pipeline = CircuitGPSPipeline.from_checkpoint(args.checkpoint)
    engine = AnnotationEngine(pipeline, batch_size=args.batch_size,
                              threshold=args.threshold, workers=workers,
                              precision=args.precision)
    if args.shards is not None:
        return _cmd_annotate_sharded(args, engine, pairs)
    # Netlists are annotated in groups of one-per-worker so completed designs
    # are printed (and their annotated netlists written) as the run
    # progresses.  A bad netlist or unknown pair name fails only its own
    # design (on_error="collect"): the error goes to stderr, every other
    # design is still annotated, and the exit code is 2 when anything failed.
    # Per-design seeds are spawned from the global seed at the global
    # position (seed_offset), so the grouping never changes results.
    group_size = max(1, engine.workers)
    reports = []
    for start in range(0, len(args.netlists), group_size):
        group = args.netlists[start:start + group_size]
        annotations = engine.annotate_many(
            group, pairs=None if pairs is None else [pairs] * len(group),
            max_candidates=args.max_candidates, seed=args.seed,
            seed_offset=start, on_error="collect",
        )
        reports.extend(annotations)
        for netlist, annotation in zip(group, annotations):
            if not annotation.ok:
                print(f"error: {annotation.design}: {annotation.message}",
                      file=sys.stderr)
                continue
            _print_annotation(annotation)
            if args.annotated_out:
                _write_annotated(netlist, annotation, args.annotated_out)
    if args.json:
        payload = reports[0].as_dict() if len(reports) == 1 else {
            "reports": [r.as_dict() for r in reports]
        }
        save_json(args.json, payload)
        print(f"Wrote JSON report to {args.json}")
    return 2 if any(not report.ok for report in reports) else 0


def _cmd_annotate_sharded(args, engine, pairs) -> int:
    """``annotate --shards N``: shard each netlist inside the engine.

    Netlists are processed one at a time — the point of sharding is bounding
    peak memory, so designs must not be resident concurrently.  Per-design
    seeds are spawned exactly like :meth:`AnnotationEngine.annotate_many`
    spawns them, so a design's candidates do not depend on its position in
    the argument list beyond its index.
    """
    from ..utils.rng import spawn_seeds

    design_seeds = spawn_seeds(args.seed, len(args.netlists))
    reports, failed = [], False
    for netlist, seed in zip(args.netlists, design_seeds):
        try:
            annotation = engine.annotate_sharded(
                netlist, pairs=pairs, num_shards=args.shards,
                halo_hops=args.halo, max_candidates=args.max_candidates,
                seed=seed)
        except (ValueError, KeyError, OSError) as exc:
            print(f"error: {netlist}: {exc}", file=sys.stderr)
            failed = True
            continue
        reports.append(annotation)
        _print_annotation(annotation)
        if args.annotated_out:
            _write_annotated(netlist, annotation, args.annotated_out)
    if args.json and reports:
        payload = reports[0].as_dict() if len(reports) == 1 else {
            "reports": [r.as_dict() for r in reports]
        }
        save_json(args.json, payload)
        print(f"Wrote JSON report to {args.json}")
    return 2 if failed else 0


def cmd_reannotate(args) -> int:
    """``reannotate``: replay an ECO delta against a previous report."""
    from ..netlist import NetlistDelta, parse_spice_file
    from .serve import AnnotationEngine, NetlistAnnotation

    payload = load_json(args.prev)
    if "records" not in payload:
        print(f"error: {args.prev} is not a single-design annotation report",
              file=sys.stderr)
        return 2
    old_circuit = parse_spice_file(args.old_netlist)
    new_circuit = parse_spice_file(args.new_netlist)
    prev = NetlistAnnotation.from_payload(payload, circuit=old_circuit)
    try:
        delta = NetlistDelta.between(old_circuit, new_circuit)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pipeline = CircuitGPSPipeline.from_checkpoint(args.checkpoint)
    engine = AnnotationEngine(pipeline, batch_size=args.batch_size,
                              threshold=args.threshold, workers=0,
                              precision=args.precision)
    annotation = engine.reannotate(prev, delta, seed=args.seed)
    summary = annotation.incremental or {}
    print(f"{annotation.design}: delta of {delta.num_changes} device change(s) -> "
          f"{summary.get('reused', 0)} record(s) reused, "
          f"{summary.get('recomputed', 0)} recomputed, "
          f"{summary.get('dropped', 0)} dropped")
    _print_annotation(annotation)
    if args.json:
        save_json(args.json, annotation.as_dict())
        print(f"Wrote JSON report to {args.json}")
    return 0


def cmd_serve(args) -> int:
    """``serve``: run the persistent annotation daemon for one artifact."""
    from .serve import AnnotationEngine
    from .server import run_server

    pipeline = CircuitGPSPipeline.from_checkpoint(args.checkpoint)
    engine = AnnotationEngine(pipeline, batch_size=args.batch_size,
                              threshold=args.threshold, workers=0,
                              precision=args.precision)
    config = ServerConfig(host=args.host, port=args.port,
                          max_batch=args.max_batch,
                          request_timeout_s=args.request_timeout)
    run_server(engine, config,
               announce=lambda url: print(f"listening on {url}", flush=True))
    return 0


def cmd_evaluate(args) -> int:
    pipeline = CircuitGPSPipeline.from_checkpoint(args.checkpoint)
    key = (args.task, args.mode)
    if key not in pipeline.finetune_results:
        available = sorted(pipeline.finetune_results)
        print(f"error: artifact has no fine-tuned head for {key}; "
              f"available: {available}", file=sys.stderr)
        return 2
    if args.scale is not None:
        pipeline.config = pipeline.config.with_data(scale=args.scale)
    names = args.designs
    if names is None:
        registry = [d["name"] for d in pipeline.design_registry if d.get("split") == "test"]
        names = registry or None
    if names is None:
        pipeline.load_designs(names=None)
        names = [d.name for d in pipeline.test_designs]
    else:
        # Training designs must load too: the X_C normaliser is fitted on them.
        from .datasets import TRAIN_DESIGNS

        pipeline.load_designs(names=sorted(set(names) | set(TRAIN_DESIGNS)))
    rows = []
    for name in names:
        link_metrics = pipeline.evaluate_link(name)
        reg_metrics = pipeline.evaluate_regression(name, task=args.task, mode=args.mode)
        rows.append({
            "design": name,
            "auc": link_metrics["auc"], "f1": link_metrics["f1"],
            "mae": reg_metrics["mae"], "rmse": reg_metrics["rmse"],
            "r2": reg_metrics["r2"],
        })
    print(format_table(rows, title=f"Zero-shot evaluation ({args.task}, {args.mode})"))
    if args.json:
        save_json(args.json, {"task": args.task, "mode": args.mode, "rows": rows})
        print(f"Wrote JSON metrics to {args.json}")
    return 0


def _report_rows(payload: dict) -> list[dict]:
    if "records" in payload:  # annotation report
        return [_annotation_row(r) for r in payload["records"]]
    if "rows" in payload and isinstance(payload["rows"], list):
        return payload["rows"]
    return [payload]


def cmd_report(args) -> int:
    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        print(f"(no result JSON files under {path})")
        return 0
    for file in files:
        payload = load_json(file)
        if "reports" in payload:
            for sub_payload in payload["reports"]:
                print(format_table(_report_rows(sub_payload), title=str(file)))
                print()
            continue
        rows = _report_rows(payload)
        rows = [row if isinstance(row, dict) else {"value": row} for row in rows]
        print(format_table(rows, title=str(file)))
        print()
    return 0


def cmd_components(args) -> int:
    """List the pluggable component registries (``repro.api``)."""
    from ..api.registries import list_components

    listing = list_components()
    if args.family is not None:
        if args.family not in listing:
            print(f"error: unknown registry {args.family!r}; "
                  f"available: {', '.join(sorted(listing))}", file=sys.stderr)
            return 2
        listing = {args.family: listing[args.family]}
    rows = [{"registry": family, "count": len(names),
             "components": ", ".join(names) or "(none)"}
            for family, names in sorted(listing.items())]
    print(format_table(rows, title="Registered components (repro.api)"))
    if args.json:
        save_json(args.json, listing)
        print(f"Wrote component listing to {args.json}")
    return 0


def cmd_lint(args) -> int:
    """``lint``: run the registered static-analysis rules over sources."""
    import json

    from ..analysis.lint import (
        format_findings, load_baseline, report_to_json, resolve_rules,
        run_lint, write_baseline,
    )

    rule_names = None
    if args.rules is not None:
        rule_names = [name.strip() for name in args.rules.split(",")
                      if name.strip()]
    rules = resolve_rules(rule_names)
    baseline = None
    if args.baseline and not args.update_baseline:
        if pathlib.Path(args.baseline).exists():
            baseline = load_baseline(args.baseline)
        else:
            print(f"note: baseline {args.baseline} does not exist yet; "
                  "treating every finding as new", file=sys.stderr)
    try:
        report = run_lint(args.paths, rules=rules, baseline=baseline)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        write_baseline(args.baseline, report.findings)
        print(f"Wrote baseline with {len(report.findings)} grandfathered "
              f"finding(s) to {args.baseline}")
        return 0
    if args.format == "json":
        print(json.dumps(report_to_json(report), indent=2))
    else:
        if report.findings:
            print(format_findings(report.findings))
        suffix = (f" ({len(report.grandfathered)} grandfathered by baseline)"
                  if report.grandfathered else "")
        print(f"{len(report.findings)} finding(s) across "
              f"{report.files_checked} file(s){suffix}")
    return 1 if report.findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro``; returns a process exit code."""
    from ..api.registry import RegistryError
    from ..api.spec import SpecError

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "annotate": cmd_annotate,
                "reannotate": cmd_reannotate, "serve": cmd_serve,
                "evaluate": cmd_evaluate, "report": cmd_report,
                "components": cmd_components, "lint": cmd_lint}
    try:
        return handlers[args.command](args)
    except (CheckpointError, FileNotFoundError, RegistryError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
