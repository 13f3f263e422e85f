"""Paired Monte-Carlo benchmark: every method sees the same seeded replicates."""

from __future__ import annotations

from . import baselines, metrics, screening, simulate
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
    config, replicate_id, methods, conditioning = args
    rep = simulate.gen_replicate(config, replicate_id)
    dataset = rep.dataset
    cs_stats = tuple(m.split("-", 1)[1] for m in methods if m in CS_METHODS)
    auto = conditioning == screening.AUTO
    rankings = {}

    psis_requested = {baselines.PSIS_WALD, baselines.PSIS_PLIK} & set(methods)
    if psis_requested or (cs_stats and (auto or conditioning.q == 0)):
        # one marginal sweep serves both PSIS flavors, the automatic choice of C and an empty C
        marginal = screening.screen(dataset, ConditioningSet())
        rankings[baselines.PSIS_WALD] = marginal.rankings["wald"]
        rankings[baselines.PSIS_PLIK] = marginal.rankings["plik"]
    cond = ConditioningSet()
    if cs_stats:
        cond = screening.top_marginal_wald(marginal) if auto else conditioning
        result = screening.screen(dataset, cond, statistics=cs_stats) if cond.q else marginal
        rankings.update({f"cs-{s}": result.rankings[s] for s in cs_stats})
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
    if not methods or len(set(methods)) < len(methods):
        raise ValidationError(f"methods must be a non-empty list of distinct names, got {methods}")
    if replicates < 1:
        raise ValidationError("need at least 1 replicate")
    if workers < 1:
        raise ValidationError(f"need at least 1 worker, got {workers}")
    conditioning = screening.parse_conditioning(conditioning)
    config = simulate.with_censor_upper(config)

    jobs = [(config, rid, methods, conditioning) for rid in range(replicates)]
    if workers == 1:
        per_rep = [run_replicate(job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # here: keeps multiprocessing out of `import coxscreen`

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(run_replicate, jobs, chunksize=max(1, replicates // (4 * workers))))
    scores = [s for rep_scores in per_rep for s in rep_scores]
    summaries = [
        metrics.summarize([s for s in scores if s.method == method]) for method in methods
    ]
    return scores, summaries
