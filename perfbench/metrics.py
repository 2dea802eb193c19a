"""Metric arithmetic: fold the worker's round records into the result line.

End-to-end metrics (``--trace 0``), each the median over the timed rounds;
times are CPU seconds of the pipeline process (see ``pipeline.py``):

    setup_s              s         load / parse / normalize, saturate, closure
    train_axioms_per_s   axioms/s  positive axioms per second of ``training.train``
    eval_queries_per_s   queries/s rank queries per second of ``evaluation.evaluate``
    peak_rss_mb          MB        peak resident memory of the worker after the rounds

Per-layer metrics (``--trace 1``) are the medians of the per-round values the
tracer reports; counts repeat exactly from round to round.
"""

from __future__ import annotations

import statistics

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_axioms_per_s": "axioms/s",
    "eval_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def end_to_end(rounds: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Median per-round rates of successful rounds, plus the peak RSS."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "train_axioms_per_s": statistics.median(r["train_axioms"] / r["train_s"] for r in rounds),
        "eval_queries_per_s": statistics.median(r["eval_queries"] / r["eval_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    names = rounds[0]["layers"]
    return {name: statistics.median(r["layers"][name] for r in rounds) for name in names}


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def summarize(lines: list[dict], trace: bool) -> tuple[dict, dict]:
    """(result line, summary) from the worker's JSON lines.

    The first round record is the warm-up.  ``attempted`` counts the timed
    rounds and ``failed`` those that raised.  ``correct`` needs every check
    to pass and every completed round, warm-up included, to have written the
    same checkpoint bytes.
    """
    final = lines[-1]
    rounds = lines[:-1]
    timed = rounds[1:]
    done = [r for r in timed if not r.get("failed")]
    if not done:
        raise ValueError("no timed round completed")
    failures = list(final["check_failures"])
    if rounds[0].get("failed"):
        failures.append("warm-up round failed")
    digests = {r["checkpoint_sha256"] for r in rounds if not r.get("failed")}
    if len(digests) != 1:
        failures.append(f"determinism: {len(digests)} distinct checkpoints from one seed")
    values = end_to_end(done, final["peak_rss_mb"])
    if trace:
        shown = {name: {"value": v, "unit": layer_unit(name)}
                 for name, v in per_layer(done).items()}
    else:
        shown = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                 for name, v in values.items()}
    result = {"correct": not failures, "attempted": len(timed),
              "failed": len(timed) - len(done), "metrics": shown}
    summary = {
        "check_failures": failures,
        "end_to_end": values,
        "rounds": [{k: r[k] for k in ("setup_s", "train_s", "eval_s", "wall_s")}
                   for r in done],
        "train_axioms": done[0]["train_axioms"],
        "eval_queries": done[0]["eval_queries"],
        "quality": {"macro_fmr": done[0]["macro_fmr"], "fhits10": done[0]["fhits10"]},
    }
    return result, summary
