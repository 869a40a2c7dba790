"""Command-line front-end: drive the selection system without writing Python.

Five subcommands, all on top of :class:`repro.service.SelectionService` and
the experiment runner (see ``docs/cli.md``)::

    python -m repro select       # one target: coarse recall + fine selection
    python -m repro batch        # many targets off one shared clustering
    python -m repro serve        # long-lived JSON front-end over the epoch
                                 # scheduler (stdin/stdout, or TCP via --port)
    python -m repro zoo          # add/remove/refresh checkpoints incrementally,
                                 # or `zoo build [--ooc --max-memory MB]` to run
                                 # the (optionally out-of-core) offline phase
    python -m repro experiments  # regenerate the paper's tables and figures

Every command accepts ``--scale small`` for fast smoke runs; ``select``,
``batch`` and ``zoo`` can emit JSON for scripting with ``--json``.
``select`` and ``batch`` run on the service's epoch scheduler, so
``--timeout``/``--max-queue`` give them a deadline and bounded admission;
on budget exhaustion they emit a structured JSON error object and exit
with the distinct code 3 (:data:`repro.serving.EXIT_SCHEDULER`) instead of
blocking forever.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from repro.core.results import TwoPhaseResult
from repro.serving import EXIT_SCHEDULER, error_payload, result_payload
from repro.utils.exceptions import ReproError, SchedulerError


# --------------------------------------------------------------------------- #
# shared argument plumbing
# --------------------------------------------------------------------------- #
def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--modality",
        choices=("nlp", "cv"),
        default="nlp",
        help="which simulated repository to serve (default: nlp)",
    )
    parser.add_argument(
        "--scale",
        choices=("full", "small"),
        default="full",
        help="dataset scale; 'small' keeps smoke runs fast (default: full)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    parser.add_argument(
        "--num-models",
        type=int,
        default=None,
        metavar="N",
        help="truncate the repository to its first N catalogue entries",
    )


def _positive_int(text: str) -> int:
    """Argparse type for strictly positive integer flags."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for strictly positive float flags (seconds)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _scheduler_config(args: argparse.Namespace):
    """SchedulerConfig from the command's scheduling flags (if any)."""
    from repro.sched.config import SchedulerConfig

    defaults = SchedulerConfig()
    return SchedulerConfig(
        policy=getattr(args, "policy", None) or defaults.policy,
        max_concurrent=getattr(args, "max_concurrent", None)
        or defaults.max_concurrent,
        epoch_budget=getattr(args, "epoch_budget", None) or defaults.epoch_budget,
        max_queue=getattr(args, "max_queue", None) or defaults.max_queue,
        timeout_seconds=getattr(args, "timeout", None),
        fused_training=not getattr(args, "no_fused_training", False),
    )


def _extrapolation_config(args: argparse.Namespace):
    """Service-level ExtrapolationConfig from ``--extrapolate`` (or None)."""
    if not getattr(args, "extrapolate", False):
        return None
    from repro.core.extrapolation import ExtrapolationConfig

    return ExtrapolationConfig(enabled=True)


def _build_service(args: argparse.Namespace):
    from repro.service import SelectionService

    return SelectionService.from_modality(
        args.modality,
        scale=args.scale,
        seed=args.seed,
        num_models=args.num_models,
        scheduler=_scheduler_config(args),
        store_dir=getattr(args, "store_dir", None),
        extrapolation=_extrapolation_config(args),
    )


# JSON payload helpers are shared with the serve front-end.
_result_payload = result_payload


def _scheduler_failure(error: Exception, stream) -> int:
    """Report a scheduler admission/budget failure: JSON object + exit 3."""
    json.dump(error_payload(error), stream, indent=2)
    print(file=stream)
    return EXIT_SCHEDULER


def _print_result(result: TwoPhaseResult, *, stream) -> None:
    print(f"target          : {result.target_name}", file=stream)
    print(f"selected model  : {result.selected_model}", file=stream)
    print(f"test accuracy   : {result.selected_accuracy:.3f}", file=stream)
    print(
        f"total cost      : {result.total_cost:.1f} epoch-equivalents "
        f"({result.selection.runtime_epochs:.0f} fine-tuning epochs + "
        f"{result.recall.epoch_cost:.1f} proxy)",
        file=stream,
    )
    print(f"recalled models : {len(result.recall.recalled_models)}", file=stream)
    for rank, name in enumerate(result.recall.recalled_models, start=1):
        marker = "*" if name == result.selected_model else " "
        print(
            f"  {marker} {rank:2d}. {name} "
            f"(recall score {result.recall.recall_scores[name]:.3f})",
            file=stream,
        )


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_select(args: argparse.Namespace, stream) -> int:
    service = _build_service(args)
    started = time.perf_counter()
    extrapolate = True if args.extrapolate else (False if args.exact else None)
    # Scheduler failures (queue full, deadline missed, quota spent) exit
    # with the distinct scheduler code instead of blocking forever.
    try:
        handle = service.submit(args.target, top_k=args.top_k,
                                total_epochs=args.raise_budget,
                                extrapolate=extrapolate)
        result = service.result(handle)
    except SchedulerError as error:
        return _scheduler_failure(error, stream)
    anytime = service.poll(handle, best=True).get("anytime") if args.anytime else None
    elapsed = time.perf_counter() - started
    if args.json:
        payload = _result_payload(result)
        payload["elapsed_seconds"] = elapsed
        if anytime is not None:
            payload["anytime"] = anytime
        json.dump(payload, stream, indent=2)
        print(file=stream)
    else:
        _print_result(result, stream=stream)
        print(f"online time     : {elapsed:.2f}s", file=stream)
        if anytime is not None and anytime.get("best"):
            best = anytime["best"]
            print(
                f"anytime best    : {best['model']} "
                f"(val acc {best['val_accuracy']:.3f}, "
                f"confidence {best['confidence']:.2f})",
                file=stream,
            )
    return 0


def _cmd_batch(args: argparse.Namespace, stream) -> int:
    service = _build_service(args)
    targets = args.targets or service.target_names
    started = time.perf_counter()
    try:
        report = service.select_many(targets, top_k=args.top_k)
    except SchedulerError as error:
        return _scheduler_failure(error, stream)
    elapsed = time.perf_counter() - started
    if args.json:
        payload = {
            "targets": {
                name: _result_payload(report.result_for(name))
                for name in report.target_names
            },
            "totals": report.summary(),
            "elapsed_seconds": elapsed,
        }
        json.dump(payload, stream, indent=2)
        print(file=stream)
        return 0
    width = max(len(name) for name in report.target_names)
    print(f"batched selection over {len(report.target_names)} targets:",
          file=stream)
    for name in report.target_names:
        result = report.result_for(name)
        print(
            f"  {name:<{width}}  -> {result.selected_model}  "
            f"acc={result.selected_accuracy:.3f}  cost={result.total_cost:.1f}",
            file=stream,
        )
    totals = report.summary()
    print(
        f"totals: {totals['total_cost']:.1f} epoch-equivalents over "
        f"{int(totals['num_tasks'])} tasks, mean accuracy "
        f"{totals['mean_selected_accuracy']:.3f}, wall time {elapsed:.2f}s",
        file=stream,
    )
    return 0


def _cmd_serve(args: argparse.Namespace, stream) -> int:
    """Long-lived JSON front-end over the service's epoch scheduler."""
    from repro.distrib.worker import arm_parent_watchdog_from_env
    from repro.persist.hooks import arm_exit_from_env

    # Fault-injection seam: REPRO_CRASH_SITE hard-kills this process at a
    # named persistence boundary (see tests/faultinject/harness.py).
    arm_exit_from_env()
    # Routed-worker seam: REPRO_PARENT_PID hard-exits this process once
    # its supervising router is gone (see repro.distrib.worker).
    arm_parent_watchdog_from_env()
    if args.workers is not None:
        return _cmd_serve_routed(args, stream)
    from repro.serving import ServeFrontEnd

    service = _build_service(args)
    recover = args.store_dir is not None and not args.no_recover
    front = ServeFrontEnd(service, default_timeout=args.timeout,
                          recover=recover)
    config = service._scheduler_config
    banner = {
        "event": "serving",
        "modality": args.modality,
        "num_models": len(service.artifacts.hub),
        "policy": config.policy,
        "max_concurrent": config.max_concurrent,
        "epoch_budget": config.epoch_budget,
        "max_queue": config.max_queue,
        "fused_training": config.fused_training,
        "zoo_version": service.artifacts.version.key,
        "extrapolation": bool(getattr(args, "extrapolate", False)),
    }
    if args.store_dir is not None:
        from repro.persist import store_summary

        banner["store_dir"] = args.store_dir
        banner["recovered"] = front.recovered_count
        banner["store"] = store_summary(service._persist)
    return _serve_front(front, banner, args, stream, cleanup=service.close)


def _cmd_serve_routed(args: argparse.Namespace, stream) -> int:
    """Routed serving: a consistent-hash router over N worker processes.

    Same protocol, same banner contract (``event: serving`` then JSON
    lines), but selections are sharded over ``--workers`` processes that
    the supervisor heartbeats and restarts; see ``docs/distributed.md``.
    """
    import os
    import signal

    from repro.distrib import RouterFrontEnd, TenantPolicy, WorkerSupervisor
    from repro.distrib.worker import worker_argv

    def argv_for(name: str, *, restart: bool) -> list:
        # Supervisor restarts suppress worker-side startup recovery: the
        # router resubmits the dead worker's in-flight requests itself.
        return worker_argv(
            name,
            modality=args.modality,
            scale=args.scale,
            seed=args.seed,
            num_models=args.num_models,
            max_concurrent=args.max_concurrent,
            epoch_budget=args.epoch_budget,
            max_queue=args.max_queue,
            policy=args.policy,
            timeout=args.timeout,
            store_root=args.store_dir,
            recover=not restart and not args.no_recover,
        )

    log_dir = (
        os.path.join(args.store_dir, "logs") if args.store_dir is not None
        else None
    )
    names = [f"w{index}" for index in range(args.workers)]
    supervisor = WorkerSupervisor(names, argv_for, log_dir=log_dir)
    supervisor.start()
    policy = TenantPolicy(
        max_inflight=args.max_inflight,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_quota=args.tenant_quota,
    )
    try:
        front = RouterFrontEnd(supervisor, policy=policy)
    except Exception:
        supervisor.stop()
        raise
    banner = {
        "event": "serving",
        "modality": args.modality,
        "num_models": front.num_models,
        "policy": args.policy,
        "max_concurrent": args.max_concurrent,
        "epoch_budget": args.epoch_budget,
        "max_queue": args.max_queue,
        "zoo_version": front.version_key,
        "workers": front.worker_summaries(),
        "max_inflight": args.max_inflight,
        "recovered": front.recovered_count,
    }
    if args.store_dir is not None:
        banner["store_dir"] = args.store_dir

    def _terminate(signum, frame):  # noqa: ARG001 — signal signature
        # The deployment contract: SIGTERM to the router kills the whole
        # fleet (the per-worker parent watchdog is only the backstop).
        supervisor.stop()
        os._exit(0)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:
        pass  # not the main thread (in-process tests); watchdog covers us

    def cleanup() -> None:
        front.close()
        supervisor.stop()

    return _serve_front(front, banner, args, stream, cleanup=cleanup)


def _serve_front(front, banner: Dict[str, object], args: argparse.Namespace,
                 stream, *, cleanup) -> int:
    """Print the banner, serve TCP (``--port``) or stdin, then ``cleanup()``.

    The banner is the first line on ``stream``; in TCP mode it carries the
    bound port.  Stdin is read as bytes, decoded by the front end's line
    loop exactly like a socket's.
    """
    try:
        server = None
        if args.port is not None:
            server = front.serve_tcp(args.host, args.port)
            banner["port"] = server.server_address[1]
        json.dump(banner, stream)
        print(file=stream, flush=True)
        if server is None:
            return front.serve_stream(getattr(sys.stdin, "buffer", sys.stdin),
                                      stream)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            server.server_close()
        return 0
    finally:
        cleanup()


def _cmd_zoo(args: argparse.Namespace, stream) -> int:
    """Apply an incremental zoo update to a freshly served repository."""
    import numpy as np

    if args.zoo_command == "add":
        added, removed = args.models, []
    elif args.zoo_command == "remove":
        added, removed = [], args.models
    else:
        added, removed = args.add or [], args.remove or []
        if not added and not removed:
            print("error: zoo refresh needs --add and/or --remove", file=sys.stderr)
            return 2
    service = _build_service(args)
    before = service.artifacts
    started = time.perf_counter()
    result = service.refresh(added=added, removed=removed)
    elapsed = time.perf_counter() - started
    after = result.artifacts
    clusters_before = before.clustering.assignment.num_clusters
    clusters_after = after.clustering.assignment.num_clusters

    verified = None
    if args.verify:
        from repro.core.pipeline import OfflineArtifacts

        fresh = OfflineArtifacts.build(
            result.artifacts.hub,
            result.artifacts.suite,
            config=result.artifacts.config,
            cache=False,
        )
        verified = bool(
            np.array_equal(result.artifacts.matrix.values, fresh.matrix.values)
            and np.array_equal(
                result.artifacts.clustering.similarity, fresh.clustering.similarity
            )
        )

    if args.json:
        payload = result.summary()
        payload["elapsed_seconds"] = elapsed
        payload["num_clusters"] = float(clusters_after)
        if verified is not None:
            payload["verified"] = verified
        json.dump(payload, stream, indent=2)
        print(file=stream)
    else:
        print(f"zoo update   : {result.old_version.key} -> {result.new_version.key}", file=stream)
        print(f"added        : {len(result.added)} {result.added}", file=stream)
        print(f"removed      : {len(result.removed)} {result.removed}", file=stream)
        print(
            f"models       : {len(before.hub)} -> {len(after.hub)}",
            file=stream,
        )
        print(
            f"clusters     : {clusters_before} -> {clusters_after}",
            file=stream,
        )
        recluster_note = "full re-cluster" if result.reclustered else "incremental"
        print(
            f"clustering   : {recluster_note} (staleness {result.staleness:.2f})",
            file=stream,
        )
        print(f"cache        : {result.evicted_entries} stale entries evicted", file=stream)
        print(f"refresh time : {elapsed:.2f}s", file=stream)
        if verified is not None:
            status = "bitwise-equal to a from-scratch rebuild" if verified else "MISMATCH"
            print(f"verification : {status}", file=stream)
    if verified is False:
        return 1
    return 0


def _cmd_zoo_build(args: argparse.Namespace, stream) -> int:
    """Run the offline phase — optionally out-of-core — and report on it."""
    from dataclasses import replace

    import numpy as np

    from repro.core.config import PipelineConfig, SimilarityConfig
    from repro.core.pipeline import OfflineArtifacts
    from repro.service import modality_hub

    suite, hub = modality_hub(args.modality, scale=args.scale, seed=args.seed,
                              num_models=args.num_models)
    defaults = SimilarityConfig()
    similarity = SimilarityConfig(
        max_bytes_in_flight=(
            args.max_memory * 1024 * 1024
            if args.max_memory is not None
            else defaults.max_bytes_in_flight
        ),
        spill_threshold_bytes=0 if args.ooc else defaults.spill_threshold_bytes,
        store_dir=args.store_dir,
    )
    config = replace(PipelineConfig.for_modality(args.modality), similarity=similarity)
    started = time.perf_counter()
    artifacts = OfflineArtifacts.build(hub, suite, config=config)
    elapsed = time.perf_counter() - started
    matrix = artifacts.clustering.similarity
    spilled = isinstance(matrix, np.memmap)
    payload: Dict[str, object] = {
        "modality": args.modality,
        "num_models": len(artifacts.hub),
        "num_benchmarks": len(artifacts.matrix.dataset_names),
        "num_clusters": artifacts.clustering.assignment.num_clusters,
        "similarity_backing": "memmap" if spilled else "memory",
        "similarity_bytes": int(matrix.nbytes),
        "max_bytes_in_flight": similarity.max_bytes_in_flight,
        "elapsed_seconds": elapsed,
    }
    if spilled:
        payload["store_path"] = str(matrix.filename)
    if args.json:
        json.dump(payload, stream, indent=2)
        print(file=stream)
        return 0
    print(f"offline build : {payload['num_models']} {args.modality} models x "
          f"{payload['num_benchmarks']} benchmarks", file=stream)
    print(f"clusters      : {payload['num_clusters']}", file=stream)
    print(f"similarity    : {payload['similarity_bytes'] / 1e6:.1f} MB "
          f"({payload['similarity_backing']})", file=stream)
    if spilled:
        print(f"store         : {payload['store_path']}", file=stream)
        print(f"memory budget : {similarity.max_bytes_in_flight / 1e6:.0f} MB in flight",
              file=stream)
    print(f"build time    : {elapsed:.2f}s", file=stream)
    return 0


def _cmd_experiments(args: argparse.Namespace, stream) -> int:
    from repro.experiments.runner import render_report, run_all

    try:
        # scale=None lets run_all fall back to REPRO_EXPERIMENT_SCALE.
        outputs = run_all(
            scale=args.scale,
            seed=args.seed,
            only=args.only,
            modalities=tuple(args.modalities),
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    text = render_report(outputs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {len(outputs)} experiment block(s) to {args.out}", file=stream)
    else:
        print(text, file=stream)
    return 0


# --------------------------------------------------------------------------- #
# parser wiring
# --------------------------------------------------------------------------- #
def _add_budget_arguments(parser: argparse.ArgumentParser) -> None:
    """``--timeout``/``--max-queue``: the epoch scheduler's budget flags.

    They give the command's requests a deadline and a bounded admission
    queue; exhausting the budget exits with code 3 and a structured JSON
    error instead of blocking forever.
    """
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; on expiry the command emits a JSON "
        "error object and exits with code 3 instead of blocking",
    )
    parser.add_argument(
        "--max-queue",
        type=_positive_int,
        default=None,
        metavar="N",
        help="bound of the scheduler's admission queue (backpressure); "
        "a rejected submission exits with code 3",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Two-phase recall-and-select model selection (ICDE 2024 "
            "reproduction): serve selection queries, batches, zoo updates "
            "and experiments from the command line."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    select = commands.add_parser(
        "select", help="select a checkpoint for one target task"
    )
    _add_common_arguments(select)
    select.add_argument("--target", required=True, help="target dataset name")
    select.add_argument(
        "--top-k", type=int, default=None, help="models recalled into phase 2"
    )
    _add_budget_arguments(select)
    select.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="persist the selection plan as a crash-safe journal under DIR; "
        "a rerun replays journaled work instead of retraining it",
    )
    select.add_argument(
        "--raise-budget",
        type=_positive_int,
        default=None,
        metavar="EPOCHS",
        help="total fine-tuning epoch budget for this request; with "
        "--store-dir, a finished request rerun at a higher budget "
        "continues from its journaled rungs and only pays the delta",
    )
    select.add_argument(
        "--anytime",
        action="store_true",
        help="also report the confidence-ordered anytime snapshot "
        "(current best candidate) from the selection plan",
    )
    speculation = select.add_mutually_exclusive_group()
    speculation.add_argument(
        "--extrapolate",
        action="store_true",
        help="speculative early stopping: retire arms whose extrapolated "
        "curve upper bound cannot beat the rung leader, charging only the "
        "epochs actually trained (predicted/actual regret is reported in "
        "the result extras)",
    )
    speculation.add_argument(
        "--exact",
        action="store_true",
        help="force the exact successive-halving path (the default); "
        "results are bitwise-identical to prior releases",
    )
    select.add_argument(
        "--no-fused-training",
        action="store_true",
        help="disable the stacked-kernel fused training of same-geometry "
        "sessions (results are bitwise-identical either way; fused is "
        "faster when rounds train several sessions of one task)",
    )
    select.add_argument("--json", action="store_true", help="emit JSON")
    select.set_defaults(handler=_cmd_select)

    batch = commands.add_parser(
        "batch", help="select checkpoints for many targets off one clustering"
    )
    _add_common_arguments(batch)
    batch.add_argument(
        "--targets",
        nargs="+",
        default=None,
        metavar="NAME",
        help="target dataset names (default: every target of the modality)",
    )
    batch.add_argument(
        "--top-k", type=int, default=None, help="models recalled into phase 2"
    )
    _add_budget_arguments(batch)
    batch.add_argument(
        "--no-fused-training",
        action="store_true",
        help="disable the stacked-kernel fused training of same-geometry "
        "sessions (results are bitwise-identical either way)",
    )
    batch.add_argument("--json", action="store_true", help="emit JSON")
    batch.set_defaults(handler=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="long-lived JSON front-end over the epoch scheduler "
        "(stdin/stdout, or TCP with --port)",
    )
    _add_common_arguments(serve)
    serve.add_argument(
        "--max-concurrent",
        type=_positive_int,
        default=4,
        metavar="N",
        help="requests trained concurrently; the rest wait in the "
        "admission queue (default: 4)",
    )
    serve.add_argument(
        "--epoch-budget",
        type=_positive_int,
        default=8,
        metavar="N",
        help="fine-tuning epochs dispatched per scheduling round across "
        "all requests (default: 8)",
    )
    serve.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        metavar="N",
        help="bound of the admission queue; submissions beyond it are "
        "rejected with a queue_full error (default: 64)",
    )
    serve.add_argument(
        "--policy",
        choices=("fair_share", "deadline"),
        default="fair_share",
        help="scheduling order of concurrent requests (default: fair_share)",
    )
    serve.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (requests may override per-op)",
    )
    serve.add_argument(
        "--extrapolate",
        action="store_true",
        help="enable curve-extrapolation early stopping as the serve-time "
        'default; clients opt out per request with {"exact": true}',
    )
    serve.add_argument(
        "--no-fused-training",
        action="store_true",
        help="disable the stacked-kernel fused training of same-geometry "
        "sessions in scheduling rounds (results are bitwise-identical "
        "either way)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a TCP socket on PORT instead of stdin/stdout "
        "(0 picks a free port, reported in the banner)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --port mode (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="durable plan-journal directory: every request is journaled "
        "under DIR, interrupted requests are recovered on startup, and "
        "clients may use the resume/anytime protocol verbs",
    )
    serve.add_argument(
        "--no-recover",
        action="store_true",
        help="with --store-dir: skip startup journal recovery (used by "
        "the routed tier for supervisor restarts, where the router "
        "resubmits in-flight requests itself)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="serve through a consistent-hash router over N worker "
        "processes (same protocol; workers are heartbeated and "
        "restarted on failure — see docs/distributed.md)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_positive_int,
        default=32,
        metavar="N",
        help="with --workers: router-wide bound on requests in flight; "
        "excess submissions fail fast with queue_full (default: 32)",
    )
    serve.add_argument(
        "--tenant-rate",
        type=_positive_float,
        default=None,
        metavar="PER_SECOND",
        help="with --workers: per-tenant admission rate (token bucket); "
        "excess submissions fail fast with rate_limited",
    )
    serve.add_argument(
        "--tenant-burst",
        type=_positive_int,
        default=4,
        metavar="N",
        help="with --workers: token-bucket burst of --tenant-rate "
        "(default: 4)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=_positive_float,
        default=None,
        metavar="EPOCHS",
        help="with --workers: cumulative fine-tuning epoch quota per "
        "tenant; once exhausted submissions fail with budget_exhausted",
    )
    serve.set_defaults(handler=_cmd_serve)

    zoo = commands.add_parser(
        "zoo",
        help="mutate the served model zoo: add/remove checkpoints incrementally",
    )
    zoo_commands = zoo.add_subparsers(dest="zoo_command", required=True)

    def _zoo_sub(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = zoo_commands.add_parser(name, help=help_text)
        _add_common_arguments(sub)
        sub.add_argument(
            "--verify",
            action="store_true",
            help="rebuild the offline artifacts from scratch and check the "
            "incremental result is bitwise-equal",
        )
        sub.add_argument("--json", action="store_true", help="emit JSON")
        sub.set_defaults(handler=_cmd_zoo)
        return sub

    zoo_add = _zoo_sub("add", "add catalogue checkpoints to the repository")
    zoo_add.add_argument(
        "--models", nargs="+", required=True, metavar="NAME",
        help="catalogue model names to add (combine with --num-models to "
        "start from a truncated repository)",
    )
    zoo_remove = _zoo_sub("remove", "remove checkpoints from the repository")
    zoo_remove.add_argument(
        "--models", nargs="+", required=True, metavar="NAME",
        help="model names to remove",
    )
    zoo_refresh = _zoo_sub("refresh", "combined add/remove update")
    zoo_refresh.add_argument(
        "--add", nargs="+", default=None, metavar="NAME", help="models to add"
    )
    zoo_refresh.add_argument(
        "--remove", nargs="+", default=None, metavar="NAME", help="models to remove"
    )

    zoo_build = zoo_commands.add_parser(
        "build",
        help="run the offline phase (optionally out-of-core) and report "
        "artifact statistics",
    )
    _add_common_arguments(zoo_build)
    zoo_build.add_argument(
        "--ooc",
        action="store_true",
        help="force out-of-core operation: spill the similarity/distance "
        "matrices to the memory-mapped store regardless of size",
    )
    zoo_build.add_argument(
        "--max-memory",
        type=int,
        default=None,
        metavar="MB",
        help="matrix memory held in flight while streaming similarity tiles "
        "(default: 64 MB); see docs/scaling.md",
    )
    zoo_build.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="matrix store directory (default: REPRO_STORE_DIR or a "
        "process-temporary directory)",
    )
    zoo_build.add_argument("--json", action="store_true", help="emit JSON")
    zoo_build.set_defaults(handler=_cmd_zoo_build)

    experiments = commands.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="ID",
        help="experiment ids (e.g. fig1 table6); default: all",
    )
    experiments.add_argument(
        "--modalities",
        nargs="+",
        choices=("nlp", "cv"),
        default=("nlp", "cv"),
        help="modalities to run (default: both)",
    )
    experiments.add_argument(
        "--scale", choices=("full", "small"), default=None,
        help="experiment scale (default: REPRO_EXPERIMENT_SCALE or full)",
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--out", default=None, metavar="FILE", help="write the report to FILE"
    )
    experiments.set_defaults(handler=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None, *, stream=None) -> int:
    """CLI entry point; returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, stream)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — conventional silent exit.
        return 0
