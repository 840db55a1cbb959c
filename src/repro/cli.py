"""``repro-select`` — jury selection from the command line.

Every subcommand is a thin transport over one dispatch path: requests are
parsed by :meth:`repro.api.SelectionRequest.from_dict` (the single request
parser), answered by a :class:`repro.api.JuryService`, and encoded from
:meth:`repro.api.SelectionResponse.to_dict` (the single encoder) — wire
protocol v1, tagged ``"v": 1`` on every row.

Single-query mode reads a CSV of candidate jurors and prints the selected
jury:

    repro-select candidates.csv                          # AltrM optimum
    repro-select candidates.csv --budget 1.0             # PayALG greedy
    repro-select candidates.csv --budget 1.0 --exact     # exact optimum
    repro-select candidates.csv --json                   # machine-readable

CSV format: a header line followed by ``id,error_rate[,requirement]`` rows.
The requirement column is optional and defaults to 0 (altruistic jurors).

Explain mode plans a query through the same ``JuryService`` the selection
paths execute through, and prints the chosen physical plan — operator,
numeric backends, cost-model inputs — *without* executing it:

    repro-select explain candidates.csv --budget 1.0
    repro-select explain candidates.csv --exact --json

Batch mode answers many selection queries in one pass through the service's
batch engine (vectorized sweeps, shared-pool caching):

    repro-select batch queries.jsonl                     # JSONL to stdout
    repro-select batch queries.jsonl --out results.jsonl

Batch input is JSON Lines; blank lines and ``#`` comments are skipped.
A row *without* a ``"task"`` key defines a named shared pool:

    {"pool": "P1", "candidates": [{"id": "A", "error_rate": 0.1,
                                   "requirement": 0.2}, ...]}

A row *with* a ``"task"`` key is a query, drawing candidates either from a
previously defined pool (``"pool": "P1"``) or inline (``"candidates"``):

    {"task": "t1", "pool": "P1"}
    {"task": "t2", "pool": "P1", "model": "pay", "budget": 1.0}
    {"task": "t3", "candidates": [...], "model": "exact", "max_size": 7}

Supported query fields: ``model`` (``altr``/``pay``/``exact``, default
``altr``), ``budget``, ``max_size``, ``variant`` (PayALG), ``method``
(exact solver), and ``"explain": true`` — which emits the query's physical
plan (under ``"plan"``) instead of executing it.  One output row is emitted
per query row, in input order: ``status: "ok"`` rows carry the selection,
``status: "error"`` rows carry a structured
``{"code": ..., "message": ..., "detail": ...}`` error object plus the input
``line`` (also echoed to stderr as ``file:line: message``).
Exit codes: 0 — all queries succeeded; 1 — fatal (unreadable input, no
query rows); 2 — completed, but some rows were malformed or failed.

Serve mode keeps a long-lived session on stdin/stdout, backed by the
service's live-pool registry so that pool mutations and selections
interleave without resweeping unchanged state:

    repro-select serve                                   # JSONL in, JSONL out

One JSON command per input line; one JSON response per command, flushed
immediately.  Commands:

    {"cmd": "pool", "action": "create", "name": "P1", "candidates": [...]}
    {"cmd": "pool", "action": "update", "name": "P1",
     "add": [...], "remove": ["id", ...],
     "set": [{"id": "A", "error_rate": 0.25, "requirement": 0.4}, ...]}
    {"cmd": "pool", "action": "drop", "name": "P1"}
    {"cmd": "select", "task": "t1", "pool": "P1", "model": "altr", ...}
    {"cmd": "stats"}
    {"cmd": "quit"}

A pool action takes only the fields shown for it (``create`` also takes
``"replace": true``); another action's field is a ``bad-request``.

Pool responses echo ``{"ok": true, "name", "version", "size"}`` (versions
increase monotonically, one per mutation); ``select`` responses carry the
same fields as batch-mode ok rows plus ``ok`` and ``pool_version``; a
``select`` may also use inline ``"candidates"`` instead of a pool name.
Errors are reported as ``{"ok": false, "line": N, "error": {"code",
"message", ...}}`` without ending the session.  The session ends at EOF or
``quit``; the exit code is 0 when every command succeeded, 2 otherwise.

HTTP mode serves wire protocol v1 over the network, multiplexing every
connection into one async service (coalesced batching, bounded queues,
structured 503s under overload):

    repro-select http                                    # 127.0.0.1:8732
    repro-select http --host 0.0.0.0 --port 80

Endpoints: ``POST /v1/select``, ``POST /v1/select_many``, ``POST /v1/pool``,
``GET /v1/stats``, ``GET /healthz``.  The server prints
``serving on http://host:port`` once bound (``--port 0`` picks an ephemeral
port) and drains gracefully on SIGTERM/SIGINT: in-flight requests finish,
the service is closed, then the process exits 0.

Every subcommand closes its service on the way out — normal exit, EOF or
Ctrl-C — so a durable catalog is always flushed.

``batch``, ``serve``, ``http`` and ``explain`` are reserved words in the
first argument position; to select from a CSV file with one of those names,
pass it as ``./batch``.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import json
import signal
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.api import (
    ErrorInfo,
    JuryService,
    PoolCommand,
    PROTOCOL_VERSION,
    SelectionRequest,
    SelectionResponse,
    error_code,
)
from repro.core.juror import Juror
from repro.errors import ProtocolError, ReproError

__all__ = [
    "load_candidates_csv",
    "main",
    "run_batch",
    "run_explain",
    "run_http",
    "run_serve",
]


def load_candidates_csv(path: str | Path) -> list[Juror]:
    """Parse a candidates CSV into jurors.

    Expects a header containing ``id`` and ``error_rate`` columns and an
    optional ``requirement`` column; extra columns are ignored.
    """
    source = Path(path)
    jurors: list[Juror] = []
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ReproError(f"{source}: empty CSV")
        fields = {name.strip().lower() for name in reader.fieldnames}
        if "id" not in fields or "error_rate" not in fields:
            raise ReproError(
                f"{source}: header must contain 'id' and 'error_rate' columns, "
                f"got {sorted(fields)}"
            )
        for row_number, row in enumerate(reader, start=2):
            normalised = {k.strip().lower(): v for k, v in row.items() if k}
            try:
                jurors.append(
                    Juror(
                        float(normalised["error_rate"]),
                        float(normalised.get("requirement") or 0.0),
                        juror_id=normalised["id"].strip(),
                    )
                )
            except (KeyError, TypeError, ValueError, ReproError) as exc:
                raise ReproError(f"{source}:{row_number}: bad candidate row: {exc}") from exc
    if not jurors:
        raise ReproError(f"{source}: no candidate rows")
    return jurors


# ----------------------------------------------------------------------
# renderers (text only — JSON comes from SelectionResponse.to_dict)
# ----------------------------------------------------------------------


def _render_text(response: SelectionResponse) -> str:
    lines = [response.summary(), "members:"]
    for juror in sorted(response.members, key=lambda j: j.error_rate):
        lines.append(
            f"  {juror.juror_id}: eps={juror.error_rate:.6g}, "
            f"r={juror.requirement:.6g}"
        )
    return "\n".join(lines)


def _render_plan_text(info: Mapping) -> str:
    """Human-readable EXPLAIN rendering of an embedded plan mapping."""
    cost = info["cost"]
    lines = [
        f"model: {info['model']}",
        f"pool_size: {info['pool_size']}",
        f"operator: {info['operator']}",
        f"jer_backend: {info['jer_backend']}",
        f"pmf_backend: {info['pmf_backend']}",
        f"kernel_backend: {info.get('kernel_backend', 'numpy')}",
    ]
    if info["budget"] is not None:
        lines.append(f"budget: {info['budget']:g}")
        lines.append(f"affordable: {cost['affordable']}")
        lines.append(f"budget_tightness: {cost['budget_tightness']:.3f}")
    if info["max_size"] is not None:
        lines.append(f"max_size: {info['max_size']}")
    if info["variant"] is not None:
        lines.append(f"variant: {info['variant']}")
    if info["method"] is not None:
        lines.append(f"method: {info['method']}")
    lines.append("estimates:")
    for entry in cost["estimates"]:
        lines.append(f"  {entry['operator']}: ~{entry['ops']:.3g} ops")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# batch subcommand
# ----------------------------------------------------------------------


def _invalid_json_info(exc: json.JSONDecodeError) -> ErrorInfo:
    """Structured error for an unparseable input line (code from the registry)."""
    return ErrorInfo(code=error_code(exc), message=f"invalid JSON: {exc.msg}")


def _error_row(task_id: str | None, line: int | None, info: ErrorInfo) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "task": task_id,
        "status": "error",
        "line": line,
        "error": info.to_dict(),
    }


def run_batch(args: argparse.Namespace) -> int:
    """Execute the ``batch`` subcommand.  Returns a process exit code."""
    source = Path(args.input)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    service = JuryService()
    try:
        return _run_batch_rows(args, source, text, service)
    finally:
        # Close on every exit path — success, fatal row errors and Ctrl-C.
        service.close()


def _run_batch_rows(
    args: argparse.Namespace, source: Path, text: str, service: JuryService
) -> int:
    # Output slots in input order: finished row dicts, or integer keys into
    # ``resolved`` for requests answered by a later select_many flush.
    slots: list[dict | int] = []
    resolved: dict[int, dict] = {}
    pending: list[tuple[int, SelectionRequest, int]] = []  # (key, request, line)
    request_rows = 0
    had_row_errors = False

    def flush() -> None:
        """Answer all pending requests with one batched service pass."""
        nonlocal had_row_errors
        if not pending:
            return
        responses = service.select_many([request for _, request, _ in pending])
        for (key, request, line_no), response in zip(pending, responses):
            if response.status == "error":
                had_row_errors = True
                print(
                    f"{source}:{line_no}: task {request.task_id!r}: "
                    f"{response.error.message}",
                    file=sys.stderr,
                )
                resolved[key] = _error_row(request.task_id, line_no, response.error)
            else:
                resolved[key] = response.to_dict()
        pending.clear()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{line_no}"
        try:
            obj = json.loads(stripped)
            if not isinstance(obj, dict):
                raise ReproError(f"{where}: row must be a JSON object")
        except json.JSONDecodeError as exc:
            print(f"{where}: invalid JSON: {exc.msg}", file=sys.stderr)
            slots.append(_error_row(None, line_no, _invalid_json_info(exc)))
            had_row_errors = True
            continue
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            slots.append(_error_row(None, line_no, ErrorInfo.from_exception(exc)))
            had_row_errors = True
            continue

        if "task" not in obj:
            # Pool-definition row: materialise it in the service registry.
            try:
                if "pool" not in obj or "candidates" not in obj:
                    raise ReproError(
                        f"{where}: row without 'task' must define a pool "
                        "('pool' + 'candidates')"
                    )
                name = obj["pool"]
                if not isinstance(name, str):
                    raise ProtocolError(
                        f"{where}: 'pool' must be a string, got {type(name).__name__}",
                        detail={"where": where, "field": "pool"},
                    )
                command = PoolCommand.from_dict(
                    {
                        "action": "create",
                        "name": name,
                        "candidates": obj["candidates"],
                        "replace": True,
                    },
                    where=where,
                )
                if command.name in service.registry:
                    # Redefinition: answer the queries parsed so far against
                    # the pool's current contents before replacing it.
                    flush()
                service.pool(command)
            except ReproError as exc:
                print(str(exc), file=sys.stderr)
                slots.append(_error_row(None, line_no, ErrorInfo.from_exception(exc)))
                had_row_errors = True
            continue

        try:
            request = SelectionRequest.from_dict(obj, where=where)
        except ReproError as exc:
            print(str(exc), file=sys.stderr)
            task = str(obj["task"]) if "task" in obj else None
            slots.append(_error_row(task, line_no, ErrorInfo.from_exception(exc)))
            had_row_errors = True
            continue
        if request.pool is not None and request.pool not in service.registry:
            message = f"{where}: query references undefined pool {request.pool!r}"
            print(message, file=sys.stderr)
            info = ErrorInfo(
                code="pool-not-found", message=message, detail={"where": where}
            )
            slots.append(_error_row(request.task_id, line_no, info))
            had_row_errors = True
            continue
        request_rows += 1
        key = len(resolved) + len(pending)
        pending.append((key, request, line_no))
        slots.append(key)

    if not request_rows and not had_row_errors:
        print(f"error: {source}: no query rows", file=sys.stderr)
        return 1
    flush()

    rows = [slot if isinstance(slot, dict) else resolved[slot] for slot in slots]
    rendered = "\n".join(json.dumps(row) for row in rows)
    if args.out is None:
        print(rendered)
    else:
        try:
            Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 2 if had_row_errors else 0


def _build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-select batch",
        description="Answer many jury-selection queries from a JSONL file "
        "through the batch engine (shared pools are swept once).",
    )
    parser.add_argument(
        "input",
        help="JSONL file: pool rows ({'pool','candidates'}) and query rows "
        "({'task', 'pool'|'candidates', 'model', ...})",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write result JSONL here instead of stdout",
    )
    return parser


def _add_data_dir_flag(parser: argparse.ArgumentParser) -> None:
    """``--data-dir`` for the long-lived modes (serve/http)."""
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable pool catalog directory: every pool mutation is "
        "WAL-logged (fsync per record) with periodic columnar snapshots, "
        "and a restart recovers bit-identical pools from disk "
        "(default: REPRO_DATA_DIR env var, else in-memory only)",
    )


# ----------------------------------------------------------------------
# single-query + explain subcommands
# ----------------------------------------------------------------------


def _single_query_args(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by the single-query select and explain modes."""
    parser.add_argument("csv", help="candidates CSV: id,error_rate[,requirement]")
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="PayM budget; omit for the altruistic (AltrM) model",
    )
    parser.add_argument(
        "--exact",
        action="store_true",
        help="use the exact optimum (enumeration / branch-and-bound) instead "
        "of the greedy PayALG; only meaningful with --budget",
    )
    parser.add_argument(
        "--variant",
        choices=("paper", "improved"),
        default="paper",
        help="PayALG variant (default: paper)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )


def _single_query_request(args: argparse.Namespace) -> SelectionRequest:
    """Build the protocol request for the single-query CSV modes."""
    candidates = load_candidates_csv(args.csv)
    if args.budget is None:
        model = "altr"
    elif args.exact:
        model = "exact"
    else:
        model = "pay"
    return SelectionRequest(
        task_id=str(args.csv),
        candidates=tuple(candidates),
        model=model,
        budget=args.budget,
        max_size=getattr(args, "max_size", None),
        variant=args.variant,
        method=getattr(args, "method", "auto"),
    )


def run_explain(args: argparse.Namespace) -> int:
    """Execute the ``explain`` subcommand.  Returns a process exit code."""
    try:
        request = _single_query_request(args)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    service = JuryService()
    try:
        response = service.explain(request)
    finally:
        service.close()
    if response.status == "error":
        print(f"error: {response.error.message}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response.plan, indent=2))
    else:
        print(_render_plan_text(response.plan))
    return 0


def _build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-select explain",
        description="Print the physical plan (operator, backends, cost-model "
        "inputs) a query would execute with, without executing it.",
    )
    _single_query_args(parser)
    parser.add_argument(
        "--method",
        choices=("auto", "enumerate", "branch-and-bound"),
        default="auto",
        help="exact-solver preference (default: auto, the cost model decides)",
    )
    parser.add_argument(
        "--max-size",
        type=int,
        default=None,
        dest="max_size",
        help="cap on the jury size",
    )
    return parser


# ----------------------------------------------------------------------
# serve subcommand
# ----------------------------------------------------------------------


def run_serve(args: argparse.Namespace, *, stdin=None, stdout=None) -> int:
    """Execute the ``serve`` subcommand: a long-lived JSONL session.

    Reads one JSON command per line from ``stdin`` and writes one JSON
    response per command to ``stdout`` (flushed per line, so the session can
    be driven interactively or over a pipe).  Returns the process exit code.
    """
    source = sys.stdin if stdin is None else stdin
    sink = sys.stdout if stdout is None else stdout
    service = JuryService(data_dir=getattr(args, "data_dir", None))
    try:
        return _serve_session(source, sink, service)
    except KeyboardInterrupt:
        return 130
    finally:
        # Close on every exit path — EOF, 'quit' and Ctrl-C alike — so a
        # durable catalog is flushed before the session ends.
        service.close()


def _serve_session(source, sink, service: JuryService) -> int:
    had_errors = False

    def respond(row: dict) -> None:
        print(json.dumps(row), file=sink, flush=True)

    for line_no, raw in enumerate(source, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"<serve>:{line_no}"
        try:
            obj = json.loads(stripped)
            if not isinstance(obj, dict):
                raise ReproError(f"{where}: command must be a JSON object")
            cmd = obj.get("cmd")
            if cmd == "quit":
                respond({"ok": True, "cmd": "quit"})
                break
            elif cmd == "pool":
                respond(service.pool(PoolCommand.from_dict(obj, where=where)))
            elif cmd == "select":
                response = service.select(
                    SelectionRequest.from_dict(obj, where=where)
                )
                if response.status == "error":
                    had_errors = True
                    print(response.error.message, file=sys.stderr)
                    respond(
                        {
                            "ok": False,
                            "line": line_no,
                            "error": response.error.to_dict(),
                        }
                    )
                else:
                    respond({"ok": True, **response.to_dict()})
            elif cmd == "stats":
                respond(service.stats())
            else:
                raise ReproError(
                    f"{where}: unknown cmd {cmd!r}; expected 'pool', 'select', "
                    "'stats' or 'quit'"
                )
        except json.JSONDecodeError as exc:
            had_errors = True
            print(f"{where}: invalid JSON: {exc.msg}", file=sys.stderr)
            respond(
                {
                    "ok": False,
                    "line": line_no,
                    "error": _invalid_json_info(exc).to_dict(),
                }
            )
        except (ReproError, TypeError, ValueError) as exc:
            # ReproError covers domain failures; bare TypeError/ValueError
            # covers malformed payloads that slip past the explicit checks.
            # Either way the error stays per-command: the session survives.
            had_errors = True
            print(str(exc), file=sys.stderr)
            respond(
                {
                    "ok": False,
                    "line": line_no,
                    "error": ErrorInfo.from_exception(exc).to_dict(),
                }
            )
    return 2 if had_errors else 0


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-select serve",
        description="Long-lived JSONL session: live pool mutations "
        "(create/update/drop) interleaved with selections, over a shared "
        "registry of versioned live pools.",
    )
    _add_data_dir_flag(parser)
    return parser


# ----------------------------------------------------------------------
# http subcommand
# ----------------------------------------------------------------------


async def _serve_http(args: argparse.Namespace) -> int:
    """Bind, announce, serve until SIGTERM/SIGINT, then drain gracefully."""
    from repro.api.aio import AsyncJuryService
    from repro.api.server import HttpServer

    service = AsyncJuryService(
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        data_dir=getattr(args, "data_dir", None),
    )
    server = HttpServer(
        service,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
    )
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # event loops without signal support (Windows, embedded)
    # The port may be ephemeral (--port 0); announce the bound address so
    # callers (and the lifecycle tests) can find the listener.
    print(f"serving on {server.address}", flush=True)
    serve_task = asyncio.create_task(server.serve_forever())
    stop_task = asyncio.create_task(stop.wait())
    try:
        await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        # Graceful drain: stop accepting, answer in-flight requests, close
        # the service.
        await server.aclose()
        serve_task.cancel()
        stop_task.cancel()
        await asyncio.gather(serve_task, stop_task, return_exceptions=True)
    print("drained, shutting down", file=sys.stderr, flush=True)
    return 0


def run_http(args: argparse.Namespace) -> int:
    """Execute the ``http`` subcommand.  Returns a process exit code."""
    try:
        return asyncio.run(_serve_http(args))
    except KeyboardInterrupt:  # pragma: no cover — loops without handlers
        return 130


def _build_http_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-select http",
        description="Serve wire protocol v1 over HTTP (POST /v1/select, "
        "/v1/select_many, /v1/pool, GET /v1/stats, /healthz), multiplexing "
        "every connection into one coalescing async service.  Drains "
        "gracefully on SIGTERM/SIGINT.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8732,
        help="bind port; 0 picks an ephemeral port (default: 8732)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=128,
        dest="max_batch",
        help="largest coalesced engine batch (default: 128)",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        dest="max_pending",
        help="bounded pending queue; further selections get a structured "
        "503 instead of queueing (default: 1024)",
    )
    parser.add_argument(
        "--max-connections",
        type=int,
        default=512,
        dest="max_connections",
        help="simultaneous-connection bound (default: 512)",
    )
    _add_data_dir_flag(parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.  Returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "batch":
        return run_batch(_build_batch_parser().parse_args(arguments[1:]))
    if arguments and arguments[0] == "serve":
        return run_serve(_build_serve_parser().parse_args(arguments[1:]))
    if arguments and arguments[0] == "http":
        return run_http(_build_http_parser().parse_args(arguments[1:]))
    if arguments and arguments[0] == "explain":
        return run_explain(_build_explain_parser().parse_args(arguments[1:]))

    parser = argparse.ArgumentParser(
        prog="repro-select",
        description="Select the minimum-JER jury from a CSV of candidates "
        "(Cao et al., VLDB 2012).  See 'repro-select batch --help' for the "
        "batched JSONL mode, 'repro-select http --help' for the network "
        "server and 'repro-select explain --help' for the plan-only "
        "EXPLAIN mode.",
    )
    _single_query_args(parser)
    args = parser.parse_args(arguments)

    try:
        request = _single_query_request(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # One dispatch path for every surface: the single-query mode is a
    # service batch of one.
    service = JuryService()
    try:
        response = service.select(request)
    finally:
        service.close()
    if response.status == "error":
        print(f"error: {response.error.message}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response.to_dict(), indent=2))
    else:
        print(_render_text(response))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
