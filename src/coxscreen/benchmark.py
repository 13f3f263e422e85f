"""Paired Monte-Carlo benchmark: every method sees the same seeded replicates."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import baselines, metrics, screening, simulate
from .cox import FitControl
from .data import ConditioningSet
from .errors import ValidationError

CS_METHODS = ("cs-mple", "cs-wald", "cs-plik")
MARGINAL_METHODS = (baselines.PSIS_WALD, baselines.PSIS_PLIK, baselines.CORS, baselines.CRIS)
ALL_METHODS = CS_METHODS + MARGINAL_METHODS


def _score(method, ranking, rep, conditioning, budget, sure_k):
    cond = conditioning if method in CS_METHODS else ConditioningSet()
    penalty = cond.q
    m = metrics.mms(ranking, rep.true_active, penalty, cond)
    t = metrics.tpr(ranking, rep.true_active, budget, cond)
    sure = set(rep.true_active) <= set(cond.indices) | set(ranking[:sure_k])
    return metrics.ReplicateScore(method, rep.replicate_id, m, t, sure)


def run_replicate(args):
    """Scores for one replicate; top-level so worker pools can pickle it."""
    config, replicate_id, methods, conditioning, control = args
    rep = simulate.gen_replicate(config, replicate_id)
    dataset = rep.dataset
    cs_stats = tuple(m.split("-", 1)[1] for m in methods if m in CS_METHODS)
    auto = conditioning == screening.AUTO
    rankings = {}

    psis_requested = {baselines.PSIS_WALD, baselines.PSIS_PLIK} & set(methods)
    if psis_requested or (cs_stats and auto):
        # one marginal sweep serves both PSIS flavors and the automatic choice of C
        marginal = screening.screen(dataset, ConditioningSet(), control, ("wald", "plik"))
        rankings[baselines.PSIS_WALD] = marginal.rankings["wald"]
        rankings[baselines.PSIS_PLIK] = marginal.rankings["plik"]
    cond = ConditioningSet()
    if cs_stats:
        cond = screening.top_marginal_wald(marginal) if auto else conditioning
        result = screening.screen(dataset, cond, control, statistics=cs_stats)
        rankings.update({f"cs-{s}": ranking for s, ranking in result.rankings.items()})
    if baselines.CORS in methods:
        rankings[baselines.CORS] = baselines.cors(dataset).ranking
    if baselines.CRIS in methods:
        rankings[baselines.CRIS] = baselines.cris(dataset).ranking

    sure_k = screening.default_top_k(config.n)
    return [_score(m, rankings[m], rep, cond, config.n, sure_k) for m in methods]


def run_benchmark(
    config: simulate.SimConfig,
    replicates: int,
    methods=ALL_METHODS,
    conditioning=ConditioningSet((1,)),
    control: FitControl = FitControl(),
    workers: int = 1,
):
    """Run all methods on `replicates` shared datasets; returns (scores, summaries).

    `conditioning` is any spec screening.parse_conditioning accepts; 'auto'
    picks C per replicate from its marginal Wald sweep.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in ALL_METHODS:
            raise ValidationError(f"unknown method '{m}'; choose from {ALL_METHODS}")
    if replicates < 1:
        raise ValidationError("need at least 1 replicate")
    conditioning = screening.parse_conditioning(conditioning)
    if config.censor_upper is None and config.censor_target > 0:
        c, _ = simulate.calibrate_censoring(config)
        config = replace(config, censor_upper=c)

    jobs = [(config, rid, methods, conditioning, control) for rid in range(replicates)]
    if workers <= 1:
        per_rep = [run_replicate(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(run_replicate, jobs, chunksize=max(1, replicates // (4 * workers))))
    scores = [s for rep_scores in per_rep for s in rep_scores]
    summaries = [
        metrics.summarize([s for s in scores if s.method == method]) for method in methods
    ]
    return scores, summaries
