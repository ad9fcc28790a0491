"""The paper's tables and figures, and the claims they support.

Regenerates Tables III-VII and Figs. 4-9 of the AutoSF paper on the
miniature benchmarks and grades the claims that can be falsified at this
scale:

* ``table4.<dataset>.autosf_minus_best_baseline``: AutoSF's test MRR minus
  the best of DistMult, ComplEx, Analogy and SimplE (floor -0.01);
* ``fig7.<dataset>.predictor_gain`` / ``filter_gain``: full AutoSF's mean
  any-time validation MRR minus that of the arm without the predictor /
  the filter, averaged over seeds 0-4 (floor 0);
* ``fig8.<dataset>.srf_minus_onehot``: the same for the SRF predictor
  against the one-hot predictor (floor 0);
* ``table7.<dataset>.train_evaluate_share``: (train + evaluate) over
  (filter + predictor + train + evaluate) of a greedy search (floor 0.8;
  the paper reports 0.94-0.99).

Each dataset's default search runs once and feeds Tables IV-VII and
Figs. 4-5; each baseline model is trained once per dataset.  The other
tables and figures are printed but not graded.

Run it from the repository root; it takes no flags::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_paper.py

It prints every table and writes ``BENCH_paper.json`` at the repository
root: the revision, the environment, one ``{value, floor, verdict,
details}`` record per claim and the printed tables.  A verdict is
``pass``, ``fail`` or ``unmeasured (<premise>)``.  A ``fail`` is a finding,
not an error: the exit status is 1 only if a run raises or a claim's
verdict differs from the one in the committed ``BENCH_paper.json``.
"""

from __future__ import annotations

import json
import subprocess
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from bench_speedups import environment, revision

from repro.analysis import CaseStudy, format_series, format_table, transfer_matrix
from repro.core import CandidateEvaluator, are_equivalent
from repro.core.baselines import general_approximator_baseline
from repro.datasets import available_benchmarks, dataset_statistics, load_benchmark
from repro.datasets.registry import PAPER_TABLE3
from repro.experiments import ExperimentSpec, SearchLoop, SearchSpec
from repro.kge import KGEModel, train_model
from repro.kge.evaluation import evaluate_triplet_classification, generate_classification_negatives
from repro.kge.scoring import BlockScoringFunction, get_scoring_function
from repro.kge.scoring.blocks import BlockStructure
from repro.utils.config import PredictorConfig, TrainingConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_paper.json"

#: Fraction of each miniature profile's size.
SCALE = 0.3
#: Per-model training; the paper trains at d up to 2048 on the full datasets.
TRAINING = TrainingConfig(
    dimension=16, epochs=12, batch_size=256, learning_rate=0.5, l2_penalty=1e-4, seed=0
)
BASELINES = ("distmult", "complex", "analogy", "simple")
#: Trained candidates of a default search: the 5 f4 seeds and one greedy stage.
SEARCH_BUDGET = 9

#: The datasets of Figs. 4 and 6-8.
FIGURE_DATASETS = ("wn18rr", "fb15k237")
#: Fig. 7/8 claim setting.  At max_blocks=6 the search stops after the seed
#: stage and one greedy stage, and every arm trains the same candidates, so
#: the arms are compared at max_blocks=10: 5 seeds and three stages of 4.
ABLATION_SEEDS = tuple(range(5))
ABLATION_MAX_BLOCKS = 10
ABLATION_BUDGET = 17

#: Paper-reported test MRR (Table IV) for the re-implemented models.
PAPER_MRR = {
    "wn18": {"distmult": 0.821, "complex": 0.951, "analogy": 0.950, "simple": 0.950, "autosf": 0.952},
    "fb15k": {"distmult": 0.817, "complex": 0.831, "analogy": 0.829, "simple": 0.830, "autosf": 0.853},
    "wn18rr": {"distmult": 0.443, "complex": 0.471, "analogy": 0.472, "simple": 0.468, "autosf": 0.490},
    "fb15k237": {"distmult": 0.349, "complex": 0.347, "analogy": 0.348, "simple": 0.350, "autosf": 0.360},
    "yago310": {"distmult": 0.552, "complex": 0.566, "analogy": 0.565, "simple": 0.565, "autosf": 0.571},
}
#: Paper-reported triplet-classification accuracies in percent (Table VI).
PAPER_ACCURACY = {
    "fb15k": {"distmult": 80.8, "analogy": 82.1, "complex": 81.8, "simple": 81.5, "autosf": 82.7},
    "wn18rr": {"distmult": 84.6, "analogy": 86.1, "complex": 86.6, "simple": 85.7, "autosf": 87.7},
    "fb15k237": {"distmult": 79.8, "analogy": 79.7, "complex": 79.6, "simple": 79.6, "autosf": 81.2},
}
#: Paper-reported per-step times in minutes: filter, predictor, train, evaluate (Table VII).
PAPER_MINUTES = {
    "wn18": (15.9, 1.8, 475.9, 41.3),
    "fb15k": (16.8, 1.9, 886.3, 153.7),
    "wn18rr": (16.1, 1.8, 271.4, 27.9),
    "fb15k237": (16.6, 1.9, 439.2, 63.5),
    "yago310": (16.6, 1.7, 1631.1, 141.9),
}


def search_spec(predictor: Optional[PredictorConfig] = None, seed: int = 0, **search) -> ExperimentSpec:
    """A scaled-down Alg. 2 unless ``search`` overrides fields of the search
    section (e.g. ``strategy="random"`` or ``use_filter=False``); ``predictor``
    replaces the predictor section."""
    settings = dict(max_blocks=6, candidates_per_step=16, top_parents=5, train_per_step=4)
    settings.update(search)
    return ExperimentSpec(
        name="bench",
        seed=seed,
        search=SearchSpec(**settings),
        predictor=predictor if predictor is not None else PredictorConfig(epochs=150),
    )


def grade(value: Optional[float], floor: float, details: dict, premise: str = "") -> dict:
    if value is None:
        verdict = f"unmeasured ({premise})"
    else:
        verdict = "pass" if value >= floor else "fail"
    return {"value": value, "floor": floor, "verdict": verdict, "details": details}


class DatasetRun:
    """One dataset's graph, baseline models and default search, which every
    table and figure that needs them shares."""

    def __init__(self, name: str) -> None:
        self.graph = load_benchmark(name, scale=SCALE)
        self.baselines = {model: train_model(self.graph, model, TRAINING) for model in BASELINES}
        loop = SearchLoop.from_spec(search_spec(), self.graph, training_config=TRAINING)
        self.search = loop.run(max_evaluations=SEARCH_BUDGET)
        self.timing = loop.timing.summary()
        self._retrained: Dict[tuple, KGEModel] = {}

    def retrained(self, structure: BlockStructure) -> KGEModel:
        """``structure`` trained afresh (the paper's final re-training), once."""
        key = structure.key()
        if key not in self._retrained:
            self._retrained[key] = train_model(self.graph, structure, TRAINING)
        return self._retrained[key]

    def autosf(self) -> KGEModel:
        """The better of the top two searched structures on validation MRR:
        at miniature scale retraining noise matters."""
        best_model, best_valid = None, -1.0
        for record in self.search.top(2):
            candidate = self.retrained(record.structure)
            valid_mrr = candidate.evaluate(self.graph, split="valid").mrr
            if valid_mrr > best_valid:
                best_model, best_valid = candidate, valid_mrr
        return best_model


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table3(runs: Dict[str, DatasetRun]) -> str:
    rows = []
    for name, run in runs.items():
        statistics = dataset_statistics(run.graph).as_row()
        row = {"dataset": name}
        for key in ("entities", "relations", "train", "symmetric", "anti_symmetric", "inverse", "general"):
            row[key] = statistics[key]
            row[f"{key}_paper"] = PAPER_TABLE3[name][key]
        rows.append(row)
    return format_table(rows, title="Table III: dataset statistics (measured vs. paper)")


def table4(runs: Dict[str, DatasetRun], claims: dict) -> str:
    rows = []
    for name, run in runs.items():
        mrr = {}
        models = dict(run.baselines, autosf=run.autosf())
        for model_name, model in models.items():
            result = model.evaluate(run.graph, split="test")
            mrr[model_name] = result.mrr
            rows.append({
                "dataset": name,
                "model": model_name,
                "mrr": result.mrr,
                "hits@1": result.hits_at(1),
                "hits@10": result.hits_at(10),
                "mrr_paper": PAPER_MRR[name][model_name],
            })
        best = max(BASELINES, key=mrr.get)
        claims[f"table4.{name}.autosf_minus_best_baseline"] = grade(
            mrr["autosf"] - mrr[best], -0.01,
            {"autosf_mrr": mrr["autosf"], "best_baseline": best, "best_baseline_mrr": mrr[best]},
        )
    return format_table(
        rows, title="Table IV: link prediction, AutoSF vs. human-designed SFs (test split)"
    )


def table5(runs: Dict[str, DatasetRun]) -> str:
    paper_diagonal = {name: PAPER_MRR[name]["autosf"] for name in runs}
    # Every cell through the runs' cache: the diagonal is the model Tables
    # IV and VI retrain, so it is not trained again.
    transfer = transfer_matrix(
        {name: run.graph for name, run in runs.items()},
        {name: run.search.best_structure for name, run in runs.items()},
        TRAINING,
        split="test",
        train=lambda target, structure: runs[target].retrained(structure),
    )
    rows = transfer.as_rows()
    for row in rows:
        row["diagonal_paper"] = paper_diagonal[row["searched_on"]]
    table = format_table(rows, title="Table V: MRR of SF searched on row-dataset applied to column-dataset")
    wins = transfer.diagonal_wins()
    summary = "datasets where their own searched SF wins the column: " + ", ".join(
        name for name, won in wins.items() if won
    )
    return table + "\n" + summary


def table6(runs: Dict[str, DatasetRun]) -> str:
    rows = []
    for name, paper in PAPER_ACCURACY.items():
        run = runs[name]
        negatives = (
            generate_classification_negatives(run.graph, "valid", rng=1),
            generate_classification_negatives(run.graph, "test", rng=2),
        )
        models = dict(run.baselines, autosf=run.retrained(run.search.best_structure))
        for model_name in paper:
            model = models[model_name]
            accuracy = evaluate_triplet_classification(
                model.scoring_function, model.params, run.graph, negatives=negatives
            )
            rows.append({
                "dataset": name,
                "model": model_name,
                "accuracy_%": 100.0 * accuracy,
                "accuracy_paper_%": paper[model_name],
            })
    return format_table(rows, title="Table VI: triplet classification accuracy", precision=1)


def table7(runs: Dict[str, DatasetRun], claims: dict) -> str:
    rows = []
    for name, run in runs.items():
        seconds = {phase: run.timing.get(phase, {}).get("total", 0.0)
                   for phase in ("filter", "predictor", "train", "evaluate")}
        paper = PAPER_MINUTES[name]
        rows.append({
            "dataset": name,
            **{f"{phase}_s": value for phase, value in seconds.items()},
            "train_share_measured": seconds["train"] / max(
                sum(phase["total"] for phase in run.timing.values()), 1e-9),
            "train_share_paper": paper[2] / sum(paper),
        })
        claims[f"table7.{name}.train_evaluate_share"] = grade(
            (seconds["train"] + seconds["evaluate"]) / sum(seconds.values()), 0.8,
            {"seconds": seconds, "paper_share": (paper[2] + paper[3]) / sum(paper)},
        )
    return format_table(
        rows,
        title="Table VII: per-phase running time of the greedy search (seconds, miniature scale)",
    )


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
FIG4_EVAL_EVERY = 3


def fig4(runs: Dict[str, DatasetRun]) -> str:
    def training_curve(graph, scoring_function) -> List[float]:
        model = KGEModel(scoring_function, TRAINING.replace(eval_every=FIG4_EVAL_EVERY))
        history = model.fit(graph, validate=True)
        return [value for value in history.validation_mrr if value is not None]

    sections = []
    for name in FIGURE_DATASETS:
        graph = runs[name].graph
        curves = {model: training_curve(graph, get_scoring_function(model)) for model in BASELINES}
        curves["autosf"] = training_curve(graph, BlockScoringFunction(runs[name].search.best_structure))
        sections.append(format_series(
            curves,
            title=f"Fig. 4 ({name}): validation MRR every {FIG4_EVAL_EVERY} epochs",
            index_label="eval",
        ))
    return "\n\n".join(sections)


def fig5(runs: Dict[str, DatasetRun]) -> str:
    studies = {
        name: CaseStudy(name, run.search.best_structure, run.search.best_mrr,
                        dataset_statistics(run.graph))
        for name, run in runs.items()
    }
    distinct_pairs = [
        f"{a} vs {b}: {'distinct' if not are_equivalent(studies[a].structure, studies[b].structure) else 'equivalent'}"
        for a, b in combinations(studies, 2)
    ]
    novelty = [f"{name}: {'novel' if study.is_novel() else 'rediscovered classical model'}"
               for name, study in studies.items()]
    footer = "pairwise distinctiveness:\n  " + "\n  ".join(distinct_pairs)
    footer += "\nnovelty:\n  " + "\n  ".join(novelty)
    return "\n\n".join(study.report() for study in studies.values()) + "\n\n" + footer


FIG6_BUDGET = 10


def fig6(runs: Dict[str, DatasetRun]) -> str:
    sections = []
    for name in FIGURE_DATASETS:
        graph = runs[name].graph

        def search(spec):
            loop = SearchLoop.from_spec(spec, graph, training_config=TRAINING)
            return loop.run(max_evaluations=FIG6_BUDGET).anytime_curve()

        curves = {
            "autosf": search(search_spec()),
            "random": search(search_spec(strategy="random", num_blocks=6)),
            "bayes": search(search_spec(strategy="bayes", num_blocks=6, pool_size=24)),
            "gen_approx_mlp": [general_approximator_baseline(graph, TRAINING)] * FIG6_BUDGET,
        }
        sections.append(format_series(
            curves,
            title=f"Fig. 6 ({name}): any-time best validation MRR vs. #models trained",
            index_label="model#",
        ))
    return "\n\n".join(sections)


#: Fig. 7 and Fig. 8 arms; ``no_predictor`` is the same search in both.
ABLATION_ARMS = {
    "autosf": dict(),
    "no_filter": dict(use_filter=False),
    "no_predictor": dict(use_predictor=False),
    "greedy_only": dict(use_filter=False, use_predictor=False),
    "srf_predictor": dict(predictor=PredictorConfig(feature_type="srf", hidden_units=2, epochs=200)),
    "onehot_predictor": dict(predictor=PredictorConfig(feature_type="onehot", hidden_units=8, epochs=200)),
}
FIG7_ARMS = ("autosf", "no_filter", "no_predictor", "greedy_only")
FIG8_ARMS = ("srf_predictor", "onehot_predictor", "no_predictor")


def padded_curve(result) -> List[float]:
    """The any-time curve at the full budget: a search that stops early keeps its best."""
    curve = result.anytime_curve()
    return curve + curve[-1:] * (ABLATION_BUDGET - len(curve))


def fig7_fig8(runs: Dict[str, DatasetRun], claims: dict) -> Tuple[str, str]:
    """Every ablation arm on every (dataset, seed); one evaluator per pair, so
    a structure two arms propose is trained once, with the same seed."""
    fig7, fig8 = [], []
    for name in FIGURE_DATASETS:
        graph = runs[name].graph
        curves = {arm: [] for arm in ABLATION_ARMS}
        rejected, seen = [], []
        for seed in ABLATION_SEEDS:
            evaluator = CandidateEvaluator(graph, TRAINING, base_seed=seed)
            for arm, overrides in ABLATION_ARMS.items():
                spec = search_spec(seed=seed, max_blocks=ABLATION_MAX_BLOCKS, **overrides)
                result = SearchLoop.from_spec(
                    spec, graph, training_config=TRAINING, evaluator=evaluator
                ).run(max_evaluations=ABLATION_BUDGET)
                curves[arm].append(padded_curve(result))
                if arm == "autosf":
                    statistics = result.filter_statistics
                    rejected.append(statistics["rejected_constraint"] + statistics["rejected_duplicate"])
                    seen.append(statistics["total_seen"])
        mean_curve = {arm: np.mean(per_seed, axis=0).tolist() for arm, per_seed in curves.items()}
        setting = f"max_blocks={ABLATION_MAX_BLOCKS}, mean of seeds {ABLATION_SEEDS[0]}-{ABLATION_SEEDS[-1]}"
        fig7.append(format_series(
            {arm: mean_curve[arm] for arm in FIG7_ARMS},
            title=f"Fig. 7 ({name}): ablation of filter / predictor ({setting})",
            index_label="model#",
        ))
        fig8.append(format_series(
            {arm: mean_curve[arm] for arm in FIG8_ARMS},
            title=f"Fig. 8 ({name}): SRF vs. one-hot predictor features ({setting})",
            index_label="model#",
        ))

        def gain(better: str, worse: str, premise: str = "", **extra) -> dict:
            per_seed = [float(np.mean(a) - np.mean(b))
                        for a, b in zip(curves[better], curves[worse])]
            value = None if premise else float(np.mean(per_seed))
            details = {"seeds": list(ABLATION_SEEDS), "max_blocks": ABLATION_MAX_BLOCKS,
                       "budget": ABLATION_BUDGET, "per_seed": per_seed, **extra}
            return grade(value, 0.0, details, premise)

        claims[f"fig7.{name}.predictor_gain"] = gain("autosf", "no_predictor")
        claims[f"fig7.{name}.filter_gain"] = gain(
            "autosf", "no_filter",
            premise=f"filter rejected 0 of {sum(seen)}" if sum(rejected) == 0 else "",
            filter_rejected=rejected, filter_seen=seen,
        )
        claims[f"fig8.{name}.srf_minus_onehot"] = gain("srf_predictor", "onehot_predictor")
    return "\n\n".join(fig7), "\n\n".join(fig8)


FIG9_SETTINGS = {
    "N=8,K2=4": {"candidates_per_step": 8, "train_per_step": 4},
    "N=16,K2=4": {"candidates_per_step": 16, "train_per_step": 4},
    "N=32,K2=4": {"candidates_per_step": 32, "train_per_step": 4},
    "N=16,K2=2": {"candidates_per_step": 16, "train_per_step": 2},
    "N=16,K2=8": {"candidates_per_step": 16, "train_per_step": 8},
    "greedy_baseline": {"use_filter": False, "use_predictor": False},
}


def fig9(runs: Dict[str, DatasetRun]) -> str:
    graph = runs["wn18rr"].graph
    # One evaluator for every setting, so a structure two settings propose
    # trains once, seeded per candidate as each search's own evaluator is.
    evaluator = CandidateEvaluator(graph, TRAINING, base_seed=search_spec().seed)
    curves = {
        name: SearchLoop.from_spec(
            search_spec(**overrides), graph, training_config=TRAINING, evaluator=evaluator
        ).run(max_evaluations=SEARCH_BUDGET).anytime_curve()
        for name, overrides in FIG9_SETTINGS.items()
    }
    return format_series(
        curves, title="Fig. 9 (wn18rr): sensitivity of the search to N and K2", index_label="model#"
    )


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def committed_verdicts() -> Dict[str, str]:
    """Each claim's verdict in the committed ``BENCH_paper.json`` (none
    outside a git checkout or before the file is committed)."""
    try:
        completed = subprocess.run(
            ["git", "show", f"HEAD:{OUTPUT.name}"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return {}
    claims = json.loads(completed.stdout)["claims"]
    return {name: claim["verdict"] for name, claim in claims.items()}


def main() -> int:
    runs = {name: DatasetRun(name) for name in available_benchmarks()}
    claims: dict = {}
    tables = {
        "table3": table3(runs),
        "table4": table4(runs, claims),
        "table5": table5(runs),
        "table6": table6(runs),
        "table7": table7(runs, claims),
        "fig4": fig4(runs),
        "fig5": fig5(runs),
        "fig6": fig6(runs),
    }
    tables["fig7"], tables["fig8"] = fig7_fig8(runs, claims)
    tables["fig9"] = fig9(runs)
    for text in tables.values():
        print("\n" + text)

    committed = committed_verdicts()
    OUTPUT.write_text(
        json.dumps({"revision": revision(), "environment": environment(), "claims": claims,
                    "tables": tables}, indent=2) + "\n",
        encoding="utf-8",
    )
    rows = [
        {"claim": name, "value": claim["value"] if claim["value"] is not None else "-",
         "floor": claim["floor"], "verdict": claim["verdict"],
         "committed": committed.get(name, "-")}
        for name, claim in claims.items()
    ]
    print("\n" + format_table(rows, title=f"Paper claims -> {OUTPUT.name}"))
    flipped = [name for name, claim in claims.items()
               if name in committed and claim["verdict"] != committed[name]]
    if flipped:
        print("verdicts differ from the committed file: " + ", ".join(flipped))
    return 1 if flipped else 0


if __name__ == "__main__":
    raise SystemExit(main())
