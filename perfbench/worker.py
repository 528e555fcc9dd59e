"""One measured pass, run in a fresh interpreter by run.py.

Reads {"ops": [[argv, stdin_text_or_null], ...], "trace": bool} as JSON on
stdin, runs every op through ``pferrer.cli.main(argv)`` one at a time with
stdout captured, and writes one JSON object to stdout: per-op latency, exit
code and stdout sha256, the process's peak RSS and, when tracing, the
per-layer figures.  A fresh interpreter per pass keeps the library's
module-level caches from carrying over between passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def run_op(main, argv, stdin_text):
    """(exit code, stdout bytes, seconds) of one CLI call."""
    sys.stdin = io.StringIO(stdin_text if stdin_text is not None else "")
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed op, recorded by name
            code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, buffer.getvalue().encode("utf-8"), elapsed


def cache_figures(fn) -> dict | None:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    info = info()
    lookups = info.hits + info.misses
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "hit_ratio": info.hits / lookups if lookups else 0.0,
    }


def layer_figures(tracer, op_seconds: list[float], modules) -> dict:
    """Per-layer metrics of a traced pass, keyed by their benchmark names."""
    ops = len(op_seconds)
    wall = sum(op_seconds)
    out = {
        "cli.self_s": wall - tracer.top_level,
        "cli.calls": ops,
        "trace.wall_s": wall,
    }
    for layer in tracer.layer_self:
        out[f"{layer}.self_s"] = tracer.layer_self[layer]
        out[f"{layer}.calls"] = tracer.layer_calls[layer]

    def timed(layer, name, *, calls=False, per_op=False, self_time=False):
        if not hasattr(modules[layer], name):
            return  # the function is gone: its metrics are absent
        prefix = f"{layer}.{name}"
        if self_time:
            out[f"{prefix}.self_s"] = tracer.fn_self.get((layer, name), 0.0)
        else:
            out[f"{prefix}.s"] = tracer.seconds(layer, name)
        if calls:
            out[f"{prefix}.calls"] = tracer.calls(layer, name)
        if per_op:
            out[f"{prefix}.calls_per_op"] = tracer.calls(layer, name) / ops

    timed("ideal", "ferrer_ideal", calls=True, per_op=True)
    if hasattr(modules["ideal"], "ferrer_ideal"):
        out["ideal.ferrer_ideal.generators"] = tracer.count("ideal", "ferrer_ideal", "generators")
    for name in ("minimal_primes", "alexander_dual", "intersection_decomposition"):
        timed("ideal", name)
    timed("invariants", "ara_certificate")
    if hasattr(modules["invariants"], "ara_certificate"):
        out["invariants.ara_certificate.witnesses"] = tracer.count(
            "invariants", "ara_certificate", "witnesses"
        )
    timed("invariants", "betti_table")
    timed("invariants", "homological_summary")
    timed("oracle", "graded_betti_brute", calls=True, per_op=True)
    timed("oracle", "hilbert_function_truncated")
    timed("oracle", "intersect_monomial", calls=True)
    timed("series", "hilbert_series_monomial", calls=True)
    if hasattr(modules["series"], "hilbert_series_monomial"):
        out["series.hilbert_series_monomial.generators"] = tracer.count(
            "series", "hilbert_series_monomial", "generators"
        )
    split = cache_figures(getattr(modules["series"], "_numerator_splitting", None))
    if split is not None:
        for key, value in split.items():
            out[f"series.split_cache.{key}"] = value
    for name in ("validate", "boxes", "diagonal_profile"):
        timed("diagram", name)
    box_cache = cache_figures(getattr(modules["diagram"], "boxes", None))
    if box_cache is not None:
        out["diagram.boxes.cache_hit_ratio"] = box_cache["hit_ratio"]
        out["diagram.boxes.cache_size"] = box_cache["size"]
    timed("macaulay", "realize_mvector", self_time=True)
    return out


def main() -> int:
    request = json.load(sys.stdin)
    from pferrer import cli
    from pferrer import diagram, ideal, invariants, macaulay, oracle, series

    modules = {
        "diagram": diagram,
        "ideal": ideal,
        "invariants": invariants,
        "macaulay": macaulay,
        "oracle": oracle,
        "series": series,
    }
    real_stdin, real_stdout = sys.stdin, sys.stdout
    tracer = None
    codes, digests, seconds = [], [], []
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    with tracer if tracer is not None else contextlib.nullcontext():
        for argv, stdin_text in request["ops"]:
            code, out, elapsed = run_op(cli.main, argv, stdin_text)
            codes.append(code)
            digests.append(hashlib.sha256(out).hexdigest())
            seconds.append(elapsed)
    sys.stdin = real_stdin
    result = {
        "module": cli.__file__,
        "exit": codes,
        "sha256": digests,
        "op_s": seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layer_figures(tracer, seconds, modules)
    real_stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
